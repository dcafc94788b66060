// Package bench regenerates every figure of the paper's evaluation: the
// thread sweeps (Figures 1, 4, 6, 7), the TPC-C sweeps (Figure 5), the
// historical context-count dataset (Figure 2), and the §4 profiler
// breakdowns — all over the deterministic contention simulator, plus
// shape checks that assert the qualitative claims each figure makes.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/peers"
	"repro/internal/sim"
)

// DefaultThreads is the x-axis of the paper's sweeps (1..32 on a 32-context
// Niagara).
func DefaultThreads() []int { return []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32} }

// DefaultHorizon is the virtual duration of each simulated run (ns).
const DefaultHorizon = 400e6 // 400 virtual ms

// Point is one measurement.
type Point struct {
	Threads int
	Value   float64
}

// Series is one engine's curve.
type Series struct {
	Name   string
	Points []Point
}

// At returns the value at the given thread count (0 if absent).
func (s Series) At(threads int) float64 {
	for _, p := range s.Points {
		if p.Threads == threads {
			return p.Value
		}
	}
	return 0
}

// Figure is a reproduced figure: several series over a thread axis.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	LogY   bool
	Series []Series
}

// RunInsert executes one engine model at one thread count and returns
// transactions/second (1000-insert transactions) plus the resource profile.
func RunInsert(m peers.InsertModel, threads int, horizon float64) (tps float64, profile []sim.WaitStats) {
	s := sim.New(sim.Niagara())
	commits := make([]int, threads)
	factory := m.Setup(s, threads, horizon, commits)
	for i := 0; i < threads; i++ {
		s.Spawn(factory(i))
	}
	s.Run(horizon)
	inserts := 0
	for _, c := range commits {
		inserts += c
	}
	seconds := horizon / 1e9
	return float64(inserts) / float64(peers.InsertsPerTx) / seconds, s.Profile()
}

// InsertSweep runs an engine model across thread counts. transform maps
// (tps, threads) to the plotted value (identity, per-thread, normalized…).
func InsertSweep(m peers.InsertModel, threadCounts []int, horizon float64, transform func(tps float64, threads int) float64) Series {
	se := Series{Name: m.Name}
	for _, n := range threadCounts {
		tps, _ := RunInsert(m, n, horizon)
		v := tps
		if transform != nil {
			v = transform(tps, n)
		}
		se.Points = append(se.Points, Point{Threads: n, Value: v})
	}
	return se
}

// RunTpcc executes one TPC-C engine model and returns transactions/second
// for the chosen transaction type ("payment" or "neworder").
func RunTpcc(m peers.TpccModel, kind string, threads int, horizon float64) float64 {
	s := sim.New(sim.Niagara())
	commits := make([]int, threads)
	payment, newOrder := m.Setup(s, threads, horizon, commits)
	for i := 0; i < threads; i++ {
		if kind == "payment" {
			s.Spawn(payment(i))
		} else {
			s.Spawn(newOrder(i))
		}
	}
	s.Run(horizon)
	total := 0
	for _, c := range commits {
		total += c
	}
	return float64(total) / (horizon / 1e9)
}

// TpccSweep runs a TPC-C model across thread counts, reporting tps/client
// as Figure 5 does.
func TpccSweep(m peers.TpccModel, kind string, threadCounts []int, horizon float64) Series {
	se := Series{Name: m.Name}
	for _, n := range threadCounts {
		tps := RunTpcc(m, kind, n, horizon)
		se.Points = append(se.Points, Point{Threads: n, Value: tps / float64(n)})
	}
	return se
}

// Figure1 reproduces the introduction's scalability comparison: normalized
// throughput (relative to each engine's 1-thread run) for the four
// open-source engines.
func Figure1() Figure {
	fig := Figure{
		ID:     "figure1",
		Title:  "Scalability as a function of available hardware contexts",
		XLabel: "Concurrent Threads", YLabel: "Norm. Throughput",
	}
	for _, m := range peers.Figure1Models() {
		base, _ := RunInsert(m, 1, DefaultHorizon)
		se := InsertSweep(m, DefaultThreads(), DefaultHorizon, func(tps float64, _ int) float64 {
			if base == 0 {
				return 0
			}
			return tps / base
		})
		fig.Series = append(fig.Series, se)
	}
	return fig
}

// Figure4 reproduces the headline comparison: throughput per thread
// (log-y) for all six engines.
func Figure4() Figure {
	fig := Figure{
		ID:     "figure4",
		Title:  "Scalability and performance of Shore-MT vs open-source and commercial engines",
		XLabel: "Concurrent Threads", YLabel: "Throughput (tps/thread)", LogY: true,
	}
	for _, m := range peers.Figure4Models() {
		se := InsertSweep(m, DefaultThreads(), DefaultHorizon, func(tps float64, n int) float64 {
			return tps / float64(n)
		})
		fig.Series = append(fig.Series, se)
	}
	return fig
}

// Figure5 reproduces the TPC-C comparison: per-client throughput for New
// Order (left) and Payment (right).
func Figure5() (newOrder, payment Figure) {
	newOrder = Figure{
		ID:     "figure5-neworder",
		Title:  "Per-client throughput, TPC-C New Order",
		XLabel: "Clients", YLabel: "Throughput (tps/client)", LogY: true,
	}
	payment = Figure{
		ID:     "figure5-payment",
		Title:  "Per-client throughput, TPC-C Payment",
		XLabel: "Clients", YLabel: "Throughput (tps/client)", LogY: true,
	}
	for _, m := range peers.Figure5Models() {
		newOrder.Series = append(newOrder.Series, TpccSweep(m, "neworder", DefaultThreads(), DefaultHorizon))
		payment.Series = append(payment.Series, TpccSweep(m, "payment", DefaultThreads(), DefaultHorizon))
	}
	return newOrder, payment
}

// Figure6 reproduces the free-space-manager optimization case study
// (throughput in ktps, linear y).
func Figure6() Figure {
	fig := Figure{
		ID:     "figure6",
		Title:  "Impact of synchronization-primitive choice on the free-space manager",
		XLabel: "Concurrent Threads", YLabel: "Throughput (ktps)",
	}
	for _, m := range peers.Figure6Variants() {
		se := InsertSweep(m, DefaultThreads(), DefaultHorizon, func(tps float64, _ int) float64 {
			// ktps of 1000-insert transactions would be minuscule; the
			// figure's y axis (0-12 ktps) matches kilo-inserts/s.
			return tps // tx/s of 1000-insert txs == kilo-inserts/s
		})
		fig.Series = append(fig.Series, se)
	}
	return fig
}

// Figure7 reproduces the staged optimization of Shore into Shore-MT
// (tps/client, log-y).
func Figure7() Figure {
	fig := Figure{
		ID:     "figure7",
		Title:  "Performance and scalability after each optimization stage (Shore → Shore-MT)",
		XLabel: "Concurrent Threads", YLabel: "Performance (tps/client)", LogY: true,
	}
	for _, name := range peers.StageNames() {
		m := peers.ShoreStage(name)
		se := InsertSweep(m, DefaultThreads(), DefaultHorizon, func(tps float64, n int) float64 {
			return tps / float64(n)
		})
		fig.Series = append(fig.Series, se)
	}
	// Figure 7 plots stages bottom-up; keep insertion order (baseline
	// first) and let the renderer display all.
	return fig
}

// Ablation quantifies each optimization's contribution to the final
// system: the finished Shore-MT with exactly one optimization reverted,
// at 1 and 32 threads. Not a paper figure — an ablation study on top of
// the cumulative Figure 7 ladder.
func Ablation() Figure {
	fig := Figure{
		ID:     "ablation",
		Title:  "Leave-one-out ablation of Shore-MT's optimizations",
		XLabel: "Concurrent Threads", YLabel: "Throughput (tps)", LogY: true,
	}
	for _, m := range peers.AblationModels() {
		se := InsertSweep(m, []int{1, 8, 16, 32}, DefaultHorizon, nil)
		fig.Series = append(fig.Series, se)
	}
	return fig
}

// Profile reproduces the §4 per-engine bottleneck breakdowns: percentage
// of total thread time spent waiting on each resource at the given client
// count (the paper profiles at 16–24 clients).
func Profile(m peers.InsertModel, threads int) []ProfileEntry {
	horizon := DefaultHorizon
	_, prof := RunInsert(m, threads, horizon)
	totalThreadTime := horizon * float64(threads)
	var out []ProfileEntry
	for _, w := range prof {
		if w.Acquires == 0 {
			continue
		}
		out = append(out, ProfileEntry{
			Resource:    w.Name,
			WaitPercent: 100 * w.WaitNs / totalThreadTime,
			HoldPercent: 100 * w.HoldNs / horizon,
			Acquires:    w.Acquires,
			Contended:   w.Contended,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].WaitPercent > out[j].WaitPercent })
	return out
}

// ProfileEntry is one row of a §4-style profile.
type ProfileEntry struct {
	Resource    string
	WaitPercent float64 // share of total thread time spent waiting
	HoldPercent float64 // share of wall-clock the resource was held
	Acquires    uint64
	Contended   uint64
}

// Render formats the figure as an aligned text table (threads down,
// series across) — the "same rows/series the paper reports".
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", f.ID, f.Title)
	width := 14
	for _, s := range f.Series {
		if len(s.Name)+2 > width {
			width = len(s.Name) + 2
		}
	}
	fmt.Fprintf(&b, "%-10s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%*s", width, s.Name)
	}
	fmt.Fprintf(&b, "\n")
	if len(f.Series) == 0 {
		return b.String()
	}
	for _, p := range f.Series[0].Points {
		fmt.Fprintf(&b, "%-10d", p.Threads)
		for _, s := range f.Series {
			fmt.Fprintf(&b, "%*.3f", width, s.At(p.Threads))
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "(y: %s", f.YLabel)
	if f.LogY {
		fmt.Fprintf(&b, ", plotted log-scale in the paper")
	}
	fmt.Fprintf(&b, ")\n")
	return b.String()
}

// CSV formats the figure as CSV (threads, series...).
func (f Figure) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "threads")
	for _, s := range f.Series {
		fmt.Fprintf(&b, ",%s", strings.ReplaceAll(s.Name, " ", "_"))
	}
	fmt.Fprintf(&b, "\n")
	if len(f.Series) == 0 {
		return b.String()
	}
	for _, p := range f.Series[0].Points {
		fmt.Fprintf(&b, "%d", p.Threads)
		for _, s := range f.Series {
			fmt.Fprintf(&b, ",%.6g", s.At(p.Threads))
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}
