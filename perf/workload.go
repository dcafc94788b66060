package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/tpcc"
	"repro/internal/wal"
	"repro/perf/devshim"
)

// sizes holds every scale knob. fullSizes is what BENCHMARK.json
// measures; the smoke test shrinks it.
type sizes struct {
	clients int

	tpcc       tpcc.Scale // warehouses = clients
	tpccFrames int        // pool large enough to keep the database resident

	insertBatch       int // records per insert-private commit
	insertSeedBatches int // commits per table loaded at set-up

	kvKeys    int
	kvFrames  int           // about a quarter of the loaded index
	kvService time.Duration // device service time once armed
}

// clientCount is min(nproc, 4): never more closed-loop clients than
// processors, so the numbers show the engine and not the Go scheduler.
func clientCount() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	return n
}

func fullSizes() sizes {
	c := clientCount()
	return sizes{
		clients:           c,
		tpcc:              tpcc.Scale{Warehouses: c, Districts: 10, Customers: 3000, Items: 20000, StockPerItem: true},
		tpccFrames:        32768,
		insertBatch:       1000,
		insertSeedBatches: 20,
		kvKeys:            200_000,
		kvFrames:          2048,
		kvService:         100 * time.Microsecond,
	}
}

// env is what a workload's set-up gets: the seed, the scale and the
// outside-the-engine instruments of this run.
type env struct {
	seed  int64
	sz    sizes
	stage core.Stage // StageFinal, except on the ladder
	// dev decorates the volume and the log store of embedded engines. It
	// is set in traced runs (for the device counters and spans) and for a
	// slowDevice workload (for the service time).
	dev *devshim.Device
	// srv collects server-side service spans; it is set in traced runs,
	// which also time the client connections.
	srv *serverRec
}

// worker runs one workload's transactions for one closed-loop client.
type worker interface {
	// run executes one transaction, retries included, and reports its
	// type as an index into the workload's types. tt is nil unless this
	// transaction is traced.
	run(tt *txnTrace) (typ int, err error)
}

// check is one correctness assertion on the database after a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func checkEq(name string, got, want, slack int) check {
	ok := got >= want && got <= want+slack
	c := check{Name: name, OK: ok}
	if !ok || slack > 0 {
		c.Detail = fmt.Sprintf("got %d, acknowledged %d, failed (in doubt) %d", got, want, slack)
	}
	return c
}

// recovered is what the crash epilogue reports.
type recovered struct {
	ms     float64
	stats  core.RecoveryStats
	checks []check
}

// instance is one loaded database with its clients.
type instance interface {
	client(c int) worker
	// counters snapshots every layer's counters.
	counters() counters
	// check verifies the database against what the clients were
	// acknowledged. It runs with no transaction in flight.
	check() []check
	// crash runs the crash epilogue: power-cut the engine, recover over
	// the same volume and log, re-check. nil for a workload whose engine
	// the benchmark does not own.
	crash() *recovered
	// payloadBytes is the user payload the volume holds (0 = not tracked).
	payloadBytes() float64
	// config is the engine's resolved configuration, for the layer probes.
	config() core.Config
	close() error
}

// workload is one row of BENCHMARK.json's workloads.
type workload struct {
	name  string
	types []string // transaction type names; client.run returns an index
	// traceEvery traces one transaction in n. Tracing each of
	// insert-private's 1000-call transactions would be a million spans a
	// second; every other workload traces all of them.
	traceEvery int
	// freshPerWindow re-creates the database for every window.
	freshPerWindow bool
	// slowDevice arms the device shim's service time for the run. Set-up,
	// checks and recovery stay at memory speed: loading 200 000 keys
	// through a 100 µs device takes minutes.
	slowDevice bool
	open       func(env *env) (instance, error)
}

var workloads = []workload{insertPrivate, tpccEmbedded, tpccPartitioned, tpccRemote, kvOutOfPool}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// baseConfig is the engine preset every workload starts from: what
// shoremt.Open(Options{}) ships, with a fast cleaner and automatic
// checkpoints so the log is archived during the run.
func baseConfig(env *env, frames int) core.Config {
	cfg := core.StageConfig(env.stage)
	cfg.Frames = frames
	cfg.CleanerInterval = 10 * time.Millisecond
	cfg.CheckpointEvery = checkpointEvery
	return cfg
}

const (
	logSegmentBytes = 8 << 20
	checkpointEvery = 64 << 20
	recoveryTimeout = 60 * time.Second
)

// embedded is an engine the benchmark opened itself over a memory volume
// and a segmented memory log, through the device shim when env has one.
type embedded struct {
	e     *core.Engine
	mem   *disk.MemVolume
	vol   disk.Volume
	store wal.Store
	dev   *devshim.Device
}

func openEmbedded(env *env, cfg core.Config) (*embedded, error) {
	b := &embedded{mem: disk.NewMem(0), dev: env.dev}
	b.vol, b.store = b.mem, wal.NewMemSegmentStore(logSegmentBytes)
	if b.dev != nil {
		b.vol, b.store = b.dev.WrapVolume(b.mem), b.dev.WrapStore(b.store)
	}
	e, err := core.Open(b.vol, b.store, cfg)
	if err != nil {
		return nil, err
	}
	b.e = e
	return b, nil
}

func (b *embedded) config() core.Config { return b.e.Config() }

func (b *embedded) counters() counters {
	c := engineCounters(b.e.Stats())
	if b.dev != nil {
		c.addDevice(b.dev.Counters(), b.mem.NumPages())
	}
	return c
}

// crashReopen cuts the power (only what group commit made durable
// survives) and runs restart recovery over the same volume and log. A
// recovery that does not finish is reported with every goroutine's
// stack instead of hanging the benchmark.
func (b *embedded) crashReopen() (*recovered, error) {
	cfg := b.e.Config()
	b.e.CrashHard()
	type opened struct {
		e   *core.Engine
		err error
	}
	ch := make(chan opened, 1)
	start := time.Now()
	go func() {
		e, err := core.Open(b.vol, b.store, cfg)
		ch <- opened{e, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			return nil, fmt.Errorf("recovery: %w", r.err)
		}
		b.e = r.e
		return &recovered{ms: float64(time.Since(start).Nanoseconds()) / 1e6, stats: r.e.Stats().Recovery}, nil
	case <-time.After(recoveryTimeout):
		buf := make([]byte, 1<<20)
		fmt.Fprintf(os.Stderr, "recovery did not finish in %v; goroutines:\n%s\n", recoveryTimeout, buf[:runtime.Stack(buf, true)])
		return nil, fmt.Errorf("recovery did not finish in %v (stacks on stderr)", recoveryTimeout)
	}
}

// crashAndCheck is the crash epilogue shared by the embedded workloads.
func (b *embedded) crashAndCheck(recheck func() []check) *recovered {
	r, err := b.crashReopen()
	if err != nil {
		return &recovered{checks: []check{{Name: "recovered: restart", Detail: err.Error()}}}
	}
	for _, c := range recheck() {
		c.Name = "recovered: " + c.Name
		r.checks = append(r.checks, c)
	}
	return r
}

// heapRows counts a heap table's records in a read transaction.
func heapRows(e *core.Engine, store uint32) (int, error) {
	t, err := e.Begin()
	if err != nil {
		return 0, err
	}
	n := 0
	if err := e.HeapScan(t, store, func(_ page.RID, _ []byte) bool { n++; return true }); err != nil {
		_ = e.Abort(t)
		return 0, err
	}
	return n, e.CommitReadOnly(context.Background(), t)
}
