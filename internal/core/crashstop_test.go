package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/page"
	"repro/internal/wal"
)

// gatedLog parks every Flush at a gate while one is armed, and counts the
// WriteAt and Flush calls that reach the store under it after the power
// was cut.
type gatedLog struct {
	wal.Store
	armed   atomic.Bool
	entered chan struct{} // a Flush has arrived at the armed gate
	release chan struct{} // closed to open it
	dead    atomic.Bool   // Crash has been called
	late    atomic.Int64
}

func (g *gatedLog) Flush(upTo int64) error {
	if g.armed.Load() {
		g.entered <- struct{}{}
		<-g.release
	}
	if g.dead.Load() {
		g.late.Add(1)
	}
	return g.Store.Flush(upTo)
}

func (g *gatedLog) WriteAt(b []byte, off int64) error {
	if g.dead.Load() {
		g.late.Add(1)
	}
	return g.Store.WriteAt(b, off)
}

func (g *gatedLog) Crash() {
	g.dead.Store(true)
	g.Store.Crash()
}

// TestCrashStopAcrossReopen parks the log flusher inside the store's Flush,
// pulls the plug and recovers over the same store. The crashed engine's
// log manager must be stopped before the store's power is cut: none of its
// calls may reach the store afterwards, while the next engine is
// recovering it; and a commit it acknowledged must be there.
func TestCrashStopAcrossReopen(t *testing.T) {
	vol, inner := disk.NewMem(0), wal.NewMemSegmentStore(0)
	g := &gatedLog{Store: inner, entered: make(chan struct{}, 4), release: make(chan struct{})}
	cfg := StageConfig(StageFinal) // a background flusher
	cfg.Frames = 256
	cfg.CleanerInterval = 0 // the only Flush at the gate is the commit's
	e, err := Open(vol, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, _ := seedRow(t, e, "durable") // a table with no page does not outlive a crash

	g.armed.Store(true)
	committed := make(chan error, 1)
	go func() {
		tw, err := e.Begin()
		if err == nil {
			if _, err = e.HeapInsert(tw, store, []byte("in flight")); err == nil {
				err = e.Commit(tw)
			}
		}
		committed <- err
	}()
	<-g.entered // the drain that carries the commit record is inside the store

	crashed := make(chan struct{})
	go func() {
		e.CrashHard()
		close(crashed)
	}()
	select {
	case <-crashed: // the defect: the store lost power under a running drain
	case <-time.After(50 * time.Millisecond): // CrashHard is waiting for the drain to finish
	}
	g.armed.Store(false)
	close(g.release)
	<-crashed
	commitErr := <-committed

	// Recover over the bare store: whatever still comes through g comes
	// from the engine that crashed.
	e2, err := Open(vol, inner, cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer e2.Close()
	rows := 0
	tr, err := e2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.HeapScan(tr, store, func(_ page.RID, _ []byte) bool { rows++; return true }); err != nil {
		t.Fatal(err)
	}
	if err := e2.Commit(tr); err != nil {
		t.Fatal(err)
	}
	if want := 2; commitErr == nil && rows != want {
		t.Errorf("the commit was acknowledged and recovery found %d rows, want %d", rows, want)
	}
	if n := g.late.Load(); n != 0 {
		t.Errorf("%d log store calls from the crashed engine arrived after the power cut (commit: %v)", n, commitErr)
	}
}

// TestCrashStopFailedOpen: an Open that fails after its log manager and
// cleaner have started stops them before it returns, as a crash would, so
// the caller can open the same store again.
func TestCrashStopFailedOpen(t *testing.T) {
	vol, logStore := disk.NewMem(0), wal.NewMemSegmentStore(0)
	cfg := StageConfig(StageFinal)
	cfg.Frames = 256
	e, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := e.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CreateIndex(tc); err != nil { // takes store 1, the PLP catalog's id
		t.Fatal(err)
	}
	if err := e.Commit(tc); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	plpCfg := cfg
	plpCfg.DORA, plpCfg.PLP, plpCfg.DoraKeys = true, true, 4
	if e, err := Open(vol, logStore, plpCfg); err == nil {
		e.Close()
		t.Fatal("Open with PLP over a volume whose store 1 is an index succeeded")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("the failed Open left %d goroutines running", runtime.NumGoroutine()-before)
		}
		time.Sleep(time.Millisecond)
	}
	e2, err := Open(vol, logStore, cfg)
	if err != nil {
		t.Fatalf("reopen after the failed Open: %v", err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
}
