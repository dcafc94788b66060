// The benchmark is a module of its own, so that it has its own build
// file; it reaches the engine it measures through the replace below.
module repro/perf

go 1.22

require repro v0.0.0

replace repro => ../
