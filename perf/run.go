package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/tpcc"
	"repro/perf/devshim"
	"repro/perf/probe"
)

// Run shape. A run measures for `seconds`, split into windows; every
// end-to-end metric is computed per window and reported as the median
// of the windows. On the shared two-processor sandbox the benchmark is
// developed on, a neighbour slows single windows by a third several
// times a minute; with ten windows such an episode has to last more
// than half the run before it moves the reported number.
const (
	windows = 10
	// setups is how often an untraced run builds its database: set-up
	// time is gated, one sample of it is noise, and the median of three
	// is not.
	setups = 3
	// crashBurst is how long the clients run right before the crash
	// epilogue cuts the power.
	crashBurst = 200 * time.Millisecond
)

// runConfig is one invocation: a workload, a seed, a duration, traced or
// not.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	sz      sizes
	stage   core.Stage // the engine preset: StageFinal, except on the ladder
	outDir  string     // where a traced run writes its spans
	// epilogue runs the crash epilogue and the layer probes. The smoke
	// test turns it off under -short and -race.
	epilogue bool
}

// metricValue is a reported metric: the median over windows, with the
// windows' quartiles and extremes where there are windows.
type metricValue struct {
	Value   float64   `json:"value"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Windows []float64 `json:"windows,omitempty"` // in the order measured
}

func single(v float64) metricValue { return metricValue{Value: v, Q1: v, Q3: v, Min: v, Max: v} }

// runResult is what one invocation measured.
type runResult struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Checks    []check                `json:"checks"`
	Probes    []probe.Result         `json:"probes,omitempty"`
	Errors    []string               `json:"errors,omitempty"` // first failure of each client
	SpanFile  string                 `json:"span_file,omitempty"`
	Spans     int                    `json:"spans,omitempty"`
	Dropped   int                    `json:"spans_dropped,omitempty"`
}

// window is what the clients did between two counter snapshots.
type window struct {
	elapsedNs    float64
	commitsByTyp []float64
	userAborts   float64
	failed       float64
	latByTyp     [][]int64
	selfNs       []int64 // traced transactions only
	cpuMs        float64
	delta        counters
	errs         []string
}

func (w *window) commits() float64 {
	n := 0.0
	for _, c := range w.commitsByTyp {
		n += c
	}
	return n
}

func (w *window) attempted() float64 { return w.commits() + w.userAborts + w.failed }

// lat merges the latency samples of every transaction type, unsorted.
func (w *window) lat() []int64 {
	var all []int64
	for _, l := range w.latByTyp {
		all = append(all, l...)
	}
	return all
}

func cpuMs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMb() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// runWindow drives every client in a closed loop — the next transaction
// is issued when the previous one returns, no think time — for d. recs
// is nil for an untraced window.
func runWindow(inst instance, w workload, clients int, d time.Duration, recs []*recorder) window {
	type perClient struct {
		commits    []float64
		userAborts float64
		failed     float64
		lat        [][]int64
		selfNs     []int64
		end        int64
		err        string
	}
	roots := make([]string, len(w.types))
	for i, t := range w.types {
		roots[i] = "txn." + t
	}
	runtime.GC()
	per := make([]perClient, clients)
	before := inst.counters()
	cpu0 := cpuMs()
	start := nowNs()
	deadline := start + int64(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &per[c]
			p.commits = make([]float64, len(w.types))
			p.lat = make([][]int64, len(w.types))
			cl := inst.client(c)
			for n := 0; ; n++ {
				t0 := nowNs()
				if t0 >= deadline {
					break
				}
				var tt *txnTrace
				if recs != nil && n%w.traceEvery == 0 {
					tt = recs[c].begin()
				}
				typ, err := cl.run(tt)
				t1 := nowNs()
				switch {
				case err == nil:
					p.commits[typ]++
					p.lat[typ] = append(p.lat[typ], t1-t0)
				case errors.Is(err, tpcc.ErrUserAbort):
					// TPC-C's intentional 1 % rollback: a success, not a commit.
					p.userAborts++
					p.lat[typ] = append(p.lat[typ], t1-t0)
				default:
					p.failed++
					if p.err == "" {
						p.err = fmt.Sprintf("client %d, %s: %v", c, w.types[typ], err)
					}
				}
				if tt != nil {
					p.selfNs = append(p.selfNs, tt.finish(roots[typ], t0, t1))
				}
			}
			p.end = nowNs()
		}(c)
	}
	wg.Wait()
	end := start
	for i := range per {
		if per[i].end > end {
			end = per[i].end
		}
	}
	out := window{
		elapsedNs:    float64(end - start),
		cpuMs:        cpuMs() - cpu0,
		delta:        inst.counters().since(before),
		commitsByTyp: make([]float64, len(w.types)),
		latByTyp:     make([][]int64, len(w.types)),
	}
	for i := range per {
		p := &per[i]
		for t := range w.types {
			out.commitsByTyp[t] += p.commits[t]
			out.latByTyp[t] = append(out.latByTyp[t], p.lat[t]...)
		}
		out.userAborts += p.userAborts
		out.failed += p.failed
		out.selfNs = append(out.selfNs, p.selfNs...)
		if p.err != "" {
			out.errs = append(out.errs, p.err)
		}
	}
	return out
}

// runner is the state of one invocation.
type runner struct {
	cfg runConfig
	env *env
	res *runResult

	recs   []*recorder // one per client; nil unless traced
	devRec *recorder   // device spans, from engine goroutines

	setupS []float64

	// What the last instance leaves behind for the per-layer metrics.
	endCounters counters
	payload     float64
	engineCfg   core.Config
	recovered   *recovered
}

// run is one invocation of the benchmark on one workload.
func run(cfg runConfig) (*runResult, error) {
	r := &runner{
		cfg: cfg,
		env: &env{seed: cfg.seed, sz: cfg.sz, stage: cfg.stage},
		res: &runResult{Workload: cfg.w.name, Traced: cfg.traced, Metrics: map[string]metricValue{}},
	}
	if cfg.traced {
		for c := 0; c < cfg.sz.clients; c++ {
			r.recs = append(r.recs, newRecorder(c, false))
		}
		r.devRec = newRecorder(cfg.sz.clients, true)
		r.env.srv = newServerRec()
	}
	if cfg.traced || cfg.w.slowDevice {
		r.env.dev = devshim.New(nowNs)
	}
	ws, err := r.measure()
	if err != nil {
		return nil, err
	}
	res := r.res
	for i := range ws {
		res.Attempted += int(ws[i].attempted())
		res.Failed += int(ws[i].failed)
		res.Errors = append(res.Errors, ws[i].errs...)
	}
	res.Correct = true
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	if !cfg.traced {
		endToEnd(res, ws, r.setupS)
		return res, nil
	}
	return res, r.perLayer(ws)
}

// slow arms the device's service time for a slowDevice workload, or
// disarms it: set-up, checks and recovery run at memory speed.
func (r *runner) slow(on bool) {
	if r.env.dev == nil {
		return
	}
	var service time.Duration
	if on && r.cfg.w.slowDevice {
		service = r.cfg.sz.kvService
	}
	r.env.dev.Arm(service)
}

// tracing switches the recording of device and server spans; client
// spans are recorded by whoever holds a client's recorder.
func (r *runner) tracing(on bool) {
	if !r.cfg.traced {
		return
	}
	r.env.srv.on.Store(on)
	if on {
		r.env.dev.SetSink(deviceSink(r.devRec))
	} else {
		r.env.dev.SetSink(nil)
	}
}

// open builds a database, timed.
func (r *runner) open() (instance, error) {
	r.slow(false)
	runtime.GC()
	start := time.Now()
	inst, err := r.cfg.w.open(r.env)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", r.cfg.w.name, err)
	}
	r.setupS = append(r.setupS, time.Since(start).Seconds())
	return inst, nil
}

// finish checks an instance's database, runs the crash epilogue on the
// run's last one, and closes it.
func (r *runner) finish(inst instance, final bool) error {
	r.slow(false)
	r.res.Checks = append(r.res.Checks, inst.check()...)
	if final {
		r.endCounters, r.payload, r.engineCfg = inst.counters(), inst.payloadBytes(), inst.config()
	}
	if final && r.cfg.epilogue {
		// A last burst of work, so that the power cut finds dirty pages
		// and an unflushed log tail instead of a quiesced, fully cleaned
		// database.
		r.slow(true)
		runWindow(inst, r.cfg.w, r.cfg.sz.clients, crashBurst, nil)
		r.slow(false)
		if r.recovered = inst.crash(); r.recovered != nil {
			r.res.Checks = append(r.res.Checks, r.recovered.checks...)
		}
	}
	return inst.close()
}

// measure sets up, warms up and runs the windows.
func (r *runner) measure() ([]window, error) {
	cfg, w, clients := r.cfg, r.cfg.w, r.cfg.sz.clients
	win := time.Duration(cfg.seconds / windows * float64(time.Second))
	warm := time.Duration(cfg.seconds / 5 * float64(time.Second))
	if w.freshPerWindow {
		warm = win / 8 // every window warms its own engine
	}
	var ws []window
	var inst instance
	for i := 0; i < windows; i++ {
		if i == 0 || w.freshPerWindow {
			var err error
			if inst, err = r.open(); err != nil {
				return nil, err
			}
			// An untraced run of a long-lived database builds it twice
			// more, for the median set-up time.
			for n := 1; n < setups && !cfg.traced && !w.freshPerWindow; n++ {
				if err := inst.close(); err != nil {
					return nil, err
				}
				if inst, err = r.open(); err != nil {
					return nil, err
				}
			}
			r.slow(true)
			runWindow(inst, w, clients, warm, nil)
		}
		// A traced run keeps its first window untraced, as the reference
		// the tracing overhead is measured against.
		var recs []*recorder
		if i > 0 {
			recs = r.recs
		}
		r.tracing(recs != nil)
		ws = append(ws, runWindow(inst, w, clients, win, recs))
		r.tracing(false)
		if final := i == windows-1; final || w.freshPerWindow {
			if err := r.finish(inst, final); err != nil {
				return nil, err
			}
		}
	}
	return ws, nil
}

// perLayer derives the per-layer metrics of a traced run from windows
// 2 and up, runs the probes and writes the spans out.
func (r *runner) perLayer(ws []window) error {
	cfg, w, res := r.cfg, r.cfg.w, r.res
	in := &layerInput{
		c: counters{}, clients: cfg.sz.clients, types: w.types, sz: cfg.sz,
		commitsByTyp: make([]float64, len(w.types)),
		latByTyp:     make([][]int64, len(w.types)),
		spanDur:      map[string][]int64{},
		probes:       map[string]float64{},
		payloadBytes: r.payload,
		untracedTps:  ws[0].commits() / ws[0].elapsedNs * 1e9,
		peakRSSMb:    peakRSSMb(),
	}
	for _, x := range ws[1:] {
		in.c.add(x.delta)
		in.elapsedNs += x.elapsedNs
		in.commits += x.commits()
		in.userAborts += x.userAborts
		in.failed += x.failed
		in.attempted += x.attempted()
		for t := range w.types {
			in.commitsByTyp[t] += x.commitsByTyp[t]
			in.latByTyp[t] = append(in.latByTyp[t], x.latByTyp[t]...)
		}
		in.lat = append(in.lat, x.lat()...)
		in.selfNs = append(in.selfNs, x.selfNs...)
		in.tracedTps = append(in.tracedTps, x.commits()/x.elapsedNs*1e9)
	}
	// The volume's size is the last database's, not the largest seen.
	in.c["g:disk.volume_pages"] = r.endCounters["g:disk.volume_pages"]
	sortInt64(in.lat)
	for t := range in.latByTyp {
		sortInt64(in.latByTyp[t])
	}
	sortInt64(in.selfNs)
	if r.recovered != nil {
		in.recovery, in.recoveryMs = r.recovered.stats, r.recovered.ms
	}
	if cfg.epilogue {
		var err error
		if res.Probes, err = probe.All(r.engineCfg); err != nil {
			return err
		}
		for _, p := range res.Probes {
			in.probes[p.Name] = p.NsOp
		}
	}

	all := append(r.recs, r.devRec, r.env.srv.paired(r.recs))
	for _, rec := range all {
		res.Dropped += rec.dropped
		for i := range rec.spans {
			s := &rec.spans[i]
			in.spanDur[s.name] = append(in.spanDur[s.name], s.end-s.start)
			if s.name == "wire.roundtrip" {
				in.c["wire.bytes"] += float64(s.bytes)
			}
		}
	}
	for _, d := range in.spanDur {
		sortInt64(d)
	}
	for name, v := range layerMetrics(in) {
		res.Metrics[name] = single(v)
	}
	res.SpanFile = filepath.Join(cfg.outDir, "trace-"+w.name+".jsonl")
	var err error
	res.Spans, err = writeSpans(res.SpanFile, all)
	return err
}

// endToEnd fills in the end-to-end metrics of an untraced run.
func endToEnd(res *runResult, ws []window, setupS []float64) {
	per := map[string][]float64{}
	for i := range ws {
		x := &ws[i]
		n, lat := x.commits(), x.lat()
		sortInt64(lat)
		per["tps"] = append(per["tps"], n/x.elapsedNs*1e9)
		per["p50_us"] = append(per["p50_us"], quantile(lat, 0.5)/1e3)
		per["cpu_ms_per_txn"] = append(per["cpu_ms_per_txn"], div(x.cpuMs, n))
		per["log_bytes_per_commit"] = append(per["log_bytes_per_commit"], div(x.delta["wal.inserted_bytes"], n))
	}
	per["setup_s"] = setupS
	for name, v := range per {
		s := summarize(v)
		res.Metrics[name] = metricValue{Value: s.med, Q1: s.q1, Q3: s.q3, Min: s.lo, Max: s.hi, Windows: v}
	}
	res.Metrics["ok_share"] = single(1 - div(float64(res.Failed), float64(res.Attempted)))
}
