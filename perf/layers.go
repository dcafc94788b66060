package main

import (
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/sync2"
	"repro/internal/wire"
	"repro/perf/devshim"
)

// counters is a flat snapshot of everything the engine, the server and
// the device shim count. Keys starting with "g:" are gauges (high-water
// marks, sizes): a delta keeps the later reading and a sum keeps the
// larger one. Everything else is a monotonic counter.
type counters map[string]float64

func isGauge(k string) bool { return strings.HasPrefix(k, "g:") }

// since returns the traffic between an earlier snapshot and c.
func (c counters) since(before counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		if isGauge(k) {
			d[k] = v
		} else {
			d[k] = v - before[k]
		}
	}
	return d
}

// add accumulates a window's delta into c.
func (c counters) add(d counters) {
	for k, v := range d {
		if isGauge(k) {
			c[k] = math.Max(c[k], v)
		} else {
			c[k] += v
		}
	}
}

func (c counters) latch(prefix string, s sync2.Stats) {
	c[prefix+".acq"] = float64(s.Acquisitions)
	c[prefix+".contended"] = float64(s.Contended)
}

// engineCounters flattens Engine.Stats().
func engineCounters(st core.EngineStats) counters {
	c := counters{}
	b := st.Buffer
	c["buffer.hits"] = float64(b.Hits + b.HotHits)
	c["buffer.misses"] = float64(b.Misses)
	c["buffer.evictions"] = float64(b.Evictions)
	c["buffer.writebacks"] = float64(b.Writebacks)
	c["buffer.cleaner_io"] = float64(b.CleanerIO)
	c["buffer.transit_conflicts"] = float64(b.TransitConflicts)
	c["buffer.freelist_hits"] = float64(b.FreeListHits)
	c.latch("buffer.table", b.TableLock)
	c.latch("buffer.clock", b.ClockLock)

	l := st.Log
	c["wal.inserts"] = float64(l.Inserts)
	c["wal.inserted_bytes"] = float64(l.InsertedBytes)
	c["wal.flushes"] = float64(l.Flushes)
	c["wal.insert_waits"] = float64(l.InsertWaits)
	c.latch("wal.lock", l.Lock)
	c["wal.segments_archived"] = float64(st.Recovery.SegmentsArchived)

	k := st.Lock
	c["lock.acquires"] = float64(k.Acquires)
	c["lock.waits"] = float64(k.Waits)
	c["lock.deadlocks"] = float64(k.Deadlocks)
	c["lock.timeouts"] = float64(k.Timeouts)
	c["lock.cache_hits"] = float64(k.CacheHits)
	c.latch("lock.latch", k.Latch)

	s := st.Space
	c["space.allocs"] = float64(s.Allocs)
	c["space.cache_hits"] = float64(s.CacheHits)
	c["space.cache_misses"] = float64(s.CacheMisses)
	c["space.last_page_walks"] = float64(s.LastPageWalks)
	c.latch("space.lock", s.Lock)

	c["tx.begins"] = float64(st.Tx.Begins)
	c["tx.commits"] = float64(st.Tx.Commits)
	c["tx.aborts"] = float64(st.Tx.Aborts)
	c.latch("tx.lock", st.Tx.Lock)

	t := st.Btree
	c["btree.latched"] = float64(t.LatchedDescents)
	c["btree.owner"] = float64(t.OwnerDescents)
	c["btree.owner_fallbacks"] = float64(t.OwnerFallbacks)
	c["btree.opt"] = float64(t.OptDescents)
	c["btree.restarts"] = float64(t.Restarts)

	d := st.Dora
	c["dora.routed"] = float64(d.Routed)
	c["dora.local_tx"] = float64(d.LocalTx)
	c["dora.cross_tx"] = float64(d.CrossTx)
	c["dora.local_waits"] = float64(d.LocalWaits)
	c["dora.rendezvous_waits"] = float64(d.RendezvousWaits)
	c["dora.aborts"] = float64(d.Aborts)
	c["g:dora.queue_high_water"] = float64(d.QueueHighWater)
	c["g:dora.skew_ratio"] = d.SkewRatio

	c["plp.migrations"] = float64(st.Plp.Migrations)
	c["g:plp.map_version"] = float64(st.Plp.MapVersion)

	m := st.Mvcc
	c["mvcc.versions"] = float64(m.VersionsInstalled)
	c["mvcc.chain_walks"] = float64(m.ChainWalks)
	c["mvcc.snapshot_reads"] = float64(m.SnapshotReads)
	c["mvcc.gc_reclaimed"] = float64(m.GCReclaimed)
	c["g:mvcc.live_bytes"] = float64(m.LiveBytes)
	c["g:mvcc.chain_len_hw"] = float64(m.ChainLenHW)
	return c
}

// addServer flattens Server.Stats() into c.
func (c counters) addServer(s wire.ServerStats) {
	c["server.batches"] = float64(s.Batches)
	c["server.sheds"] = float64(s.Sheds)
	c["g:server.queue_high_water"] = float64(s.QueueHighWater)
}

// addDevice flattens the device shim's counters into c.
func (c counters) addDevice(d devshim.Counters, volumePages uint64) {
	for k, name := range map[devshim.Kind]string{
		devshim.PageRead: "disk.reads", devshim.PageWrite: "disk.writes",
		devshim.LogWrite: "wal.store_writes", devshim.LogFlush: "wal.store_flushes",
	} {
		c[name] = float64(d.Ops[k])
		c[name+".busy_ns"] = float64(d.BusyNs[k])
		c[name+".bytes"] = float64(d.Bytes[k])
	}
	c["wal.checkpoints"] = float64(d.Checkpoints)
	c["g:disk.volume_pages"] = float64(volumePages)
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile of sorted samples (nearest rank), 0
// for none.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func sortInt64(s []int64) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// summary is the median of v with its quartiles and extremes. Quartiles
// interpolate at (n+1)k/4, as Python's statistics.quantiles does.
type summary struct{ med, q1, q3, lo, hi float64 }

func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q*float64(len(s)+1) - 1
		i := int(math.Floor(pos))
		switch {
		case i < 0:
			return s[0]
		case i >= len(s)-1:
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return summary{med: at(0.5), q1: at(0.25), q3: at(0.75), lo: s[0], hi: s[len(s)-1]}
}

// layerInput is everything a traced run measured, from which the
// per-layer metrics are derived.
type layerInput struct {
	c            counters // traffic over the traced windows
	clients      int
	elapsedNs    float64 // summed over the traced windows
	commits      float64 // acknowledged commits in the traced windows
	commitsByTyp []float64
	userAborts   float64
	attempted    float64
	failed       float64
	lat          []int64            // sorted client latencies, all types
	latByTyp     [][]int64          // sorted, per transaction type
	types        []string           // transaction type names
	spanDur      map[string][]int64 // sorted span durations by name
	selfNs       []int64            // sorted self times of the traced transactions
	probes       map[string]float64 // ns/op by metric name
	recovery     core.RecoveryStats
	recoveryMs   float64
	sz           sizes
	payloadBytes float64 // user payload the volume holds at the end
	untracedTps  float64
	tracedTps    []float64 // per traced window
	peakRSSMb    float64
}

func (in *layerInput) typ(name string) int {
	for i, t := range in.types {
		if t == name {
			return i
		}
	}
	return -1
}

// latOf returns the sorted latencies of one transaction type, nil if the
// workload has no such type.
func (in *layerInput) latOf(typ string) []int64 {
	if i := in.typ(typ); i >= 0 {
		return in.latByTyp[i]
	}
	return nil
}

func (in *layerInput) commitsOf(typ string) float64 {
	if i := in.typ(typ); i >= 0 {
		return in.commitsByTyp[i]
	}
	return 0
}

// layerMetrics derives every per-layer metric. Metrics of a layer the
// workload keeps off its path come out 0.
func layerMetrics(in *layerInput) map[string]float64 {
	c, n := in.c, in.commits
	ktxn := n / 1000
	clientNs := float64(in.clients) * in.elapsedNs
	secs := in.elapsedNs / 1e9
	us := func(name string, q float64) float64 { return quantile(in.spanDur[name], q) / 1e3 }
	share := func(prefix string) float64 { return div(c[prefix+".contended"], c[prefix+".acq"]) }
	m := map[string]float64{}

	m["client.p95_us"] = quantile(in.lat, 0.95) / 1e3
	m["client.p99_us"] = quantile(in.lat, 0.99) / 1e3
	m["client.p999_us"] = quantile(in.lat, 0.999) / 1e3
	m["client.samples"] = float64(len(in.lat))
	// A transaction's self time is its latency minus its child spans. What
	// that means depends on which children the workload has: round trips
	// (the rest is the client's own work) or engine calls (the rest is the
	// managed runner and the harness's script).
	rt := in.spanDur["wire.roundtrip"]
	m["client.overhead_us_p50"] = 0
	if len(rt) > 0 {
		m["client.overhead_us_p50"] = quantile(in.selfNs, 0.5) / 1e3
	}

	m["wire.roundtrips_per_txn"] = div(float64(len(rt)), n)
	m["wire.rtt_us_p50"] = quantile(rt, 0.5) / 1e3
	m["wire.rtt_us_p99"] = quantile(rt, 0.99) / 1e3
	m["wire.bytes_per_txn"] = div(c["wire.bytes"], n)
	m["wire.codec_probe_ns"] = in.probes["wire.codec_probe_ns"]

	m["server.service_us_p50"] = us("server.service", 0.5)
	m["server.service_us_p99"] = us("server.service", 0.99)
	m["server.sheds_per_ktxn"] = div(c["server.sheds"], ktxn)
	m["server.queue_high_water"] = c["g:server.queue_high_water"]
	m["server.batches_per_txn"] = div(c["server.batches"], n)

	// Only New Order rolls back on purpose, so the share is 0 elsewhere.
	m["tpcc.user_abort_share"] = div(in.userAborts, in.attempted)
	m["tpcc.payment_us_p50"] = quantile(in.latOf("payment"), 0.5) / 1e3
	m["tpcc.neworder_us_p50"] = quantile(in.latOf("neworder"), 0.5) / 1e3

	m["core.begin_us_p50"] = us("core.begin", 0.5)
	m["core.index_lookup_us_p50"] = us("core.index_lookup", 0.5)
	m["core.index_lookup_for_update_us_p50"] = us("core.index_lookup_for_update", 0.5)
	m["core.index_update_us_p50"] = us("core.index_update", 0.5)
	m["core.heap_insert_us_p50"] = us("core.heap_insert", 0.5)
	m["core.commit_us_p50"] = us("core.commit", 0.5)
	m["core.commit_us_p95"] = us("core.commit", 0.95)
	m["core.self_us_p50"] = 0
	if len(in.spanDur["core.begin"]) > 0 {
		m["core.self_us_p50"] = quantile(in.selfNs, 0.5) / 1e3
	}
	m["core.records_per_s"] = div(in.commitsOf("insert")*float64(in.sz.insertBatch), secs)
	m["core.recovery_ms"] = in.recoveryMs
	m["core.redo_records"] = float64(in.recovery.RecordsReplayed)
	m["core.recovery_records_scanned"] = float64(in.recovery.RecordsScanned)

	useful := n + in.userAborts
	m["tx.begins_per_commit"] = div(c["tx.begins"], useful)
	m["tx.aborts_per_ktxn"] = div(c["tx.aborts"], ktxn)
	m["tx.lock_contended_share"] = share("tx.lock")

	m["lock.acquires_per_txn"] = div(c["lock.acquires"], n)
	m["lock.waits_per_ktxn"] = div(c["lock.waits"], ktxn)
	m["lock.deadlocks_per_ktxn"] = div(c["lock.deadlocks"], ktxn)
	m["lock.timeouts_per_ktxn"] = div(c["lock.timeouts"], ktxn)
	m["lock.cache_hit_share"] = div(c["lock.cache_hits"], c["lock.cache_hits"]+c["lock.acquires"])
	m["lock.latch_contended_share"] = share("lock.latch")
	m["lock.probe_ns"] = in.probes["lock.probe_ns"]
	m["lock.est_busy_share"] = div(c["lock.acquires"]*in.probes["lock.probe_ns"], clientNs)

	m["btree.latched_descents_per_txn"] = div(c["btree.latched"], n)
	m["btree.owner_descents_per_txn"] = div(c["btree.owner"], n)
	m["btree.owner_fallback_share"] = div(c["btree.owner_fallbacks"], c["btree.owner"])
	m["btree.opt_restart_share"] = div(c["btree.restarts"], c["btree.opt"])

	fixes := c["buffer.hits"] + c["buffer.misses"]
	m["buffer.fixes_per_txn"] = div(fixes, n)
	m["buffer.hit_share"] = div(c["buffer.hits"], fixes)
	m["buffer.misses_per_txn"] = div(c["buffer.misses"], n)
	m["buffer.evictions_per_txn"] = div(c["buffer.evictions"], n)
	m["buffer.inline_writeback_share"] = div(c["buffer.writebacks"], c["buffer.evictions"])
	m["buffer.freelist_hit_share"] = div(c["buffer.freelist_hits"], c["buffer.misses"])
	m["buffer.cleaner_io_per_s"] = div(c["buffer.cleaner_io"], secs)
	m["buffer.transit_conflicts"] = c["buffer.transit_conflicts"]
	m["buffer.table_contended_share"] = share("buffer.table")
	m["buffer.clock_contended_share"] = share("buffer.clock")
	m["buffer.fix_hit_probe_ns"] = in.probes["buffer.fix_hit_probe_ns"]
	m["buffer.fix_miss_probe_ns"] = in.probes["buffer.fix_miss_probe_ns"]
	m["buffer.est_busy_share"] = div(c["buffer.hits"]*in.probes["buffer.fix_hit_probe_ns"]+
		c["buffer.misses"]*in.probes["buffer.fix_miss_probe_ns"], clientNs)

	m["space.allocs_per_ktxn"] = div(c["space.allocs"], ktxn)
	m["space.extent_cache_hit_share"] = div(c["space.cache_hits"], c["space.cache_hits"]+c["space.cache_misses"])
	m["space.last_page_walks"] = c["space.last_page_walks"]
	m["space.lock_contended_share"] = share("space.lock")

	m["wal.inserts_per_txn"] = div(c["wal.inserts"], n)
	m["wal.flushes_per_commit"] = div(c["wal.flushes"], n)
	m["wal.insert_waits_per_ktxn"] = div(c["wal.insert_waits"], ktxn)
	m["wal.lock_contended_share"] = share("wal.lock")
	insertNs, flushNs := in.probes["wal.insert_probe_ns"], in.probes["wal.insert_flush_probe_ns"]
	m["wal.insert_probe_ns"] = insertNs
	m["wal.insert_flush_probe_ns"] = flushNs
	m["wal.store_flush_us_p50"] = us("wal.store_flush", 0.5)
	m["wal.store_bytes_per_flush"] = div(c["wal.store_flushes.bytes"], c["wal.store_flushes"])
	m["wal.store_writes_per_s"] = div(c["wal.store_writes"], secs)
	m["wal.segments_archived"] = c["wal.segments_archived"]
	m["wal.checkpoints"] = c["wal.checkpoints"]
	m["wal.est_busy_share"] = div(c["wal.inserts"]*insertNs+c["wal.flushes"]*math.Max(0, flushNs-insertNs), clientNs)

	m["disk.reads_per_txn"] = div(c["disk.reads"], n)
	m["disk.writes_per_txn"] = div(c["disk.writes"], n)
	m["disk.read_busy_share"] = div(c["disk.reads.busy_ns"], in.elapsedNs)
	m["disk.write_busy_share"] = div(c["disk.writes.busy_ns"], in.elapsedNs)
	m["disk.volume_pages_end"] = c["g:disk.volume_pages"]
	m["disk.space_amp"] = div(c["g:disk.volume_pages"]*8192, in.payloadBytes)

	doraTx := c["dora.local_tx"] + c["dora.cross_tx"]
	m["dora.actions_per_txn"] = div(c["dora.routed"], n)
	m["dora.cross_tx_share"] = div(c["dora.cross_tx"], doraTx)
	m["dora.local_waits_per_ktxn"] = div(c["dora.local_waits"], ktxn)
	m["dora.rendezvous_waits_per_ktxn"] = div(c["dora.rendezvous_waits"], ktxn)
	m["dora.abort_share"] = div(c["dora.aborts"], doraTx)
	m["dora.queue_high_water"] = c["g:dora.queue_high_water"]
	m["dora.skew_ratio"] = c["g:dora.skew_ratio"]

	m["plp.migrations"] = c["plp.migrations"]
	m["plp.map_version"] = c["g:plp.map_version"]

	m["mvcc.versions_per_update_txn"] = div(c["mvcc.versions"], in.commitsOf("update"))
	m["mvcc.chain_walk_share"] = div(c["mvcc.chain_walks"], c["mvcc.snapshot_reads"])
	m["mvcc.gc_reclaimed"] = c["mvcc.gc_reclaimed"]
	m["mvcc.live_bytes_end"] = c["g:mvcc.live_bytes"]
	m["mvcc.chain_len_hw"] = c["g:mvcc.chain_len_hw"]

	traced := summarize(in.tracedTps)
	m["harness.trace_overhead_share"] = 1 - div(traced.med, in.untracedTps)
	m["harness.window_spread"] = div(traced.hi-traced.lo, traced.med)
	m["harness.peak_rss_mb"] = in.peakRSSMb
	m["harness.failed_share"] = div(in.failed, in.attempted)
	return m
}
