package peers

import "repro/internal/sim"

// Ablation models: the finished Shore-MT with exactly ONE optimization
// reverted, quantifying how much each design choice contributes to the
// final system's 32-thread throughput. This
// goes beyond the paper's cumulative ladder (Figure 7), which never
// isolates individual optimizations.
func AblationModels() []InsertModel {
	final := stageParams("final")

	revert := func(name string, mutate func(*shoreStageParams)) InsertModel {
		p := final
		p.name = name
		mutate(&p)
		return shoreModel(p)
	}

	return []InsertModel{
		shoreModelNamed(final, "final (all optimizations)"),
		revert("- consolidated log", func(p *shoreStageParams) {
			// Back to the decoupled log's longer insert critical section.
			p.logKind = sim.KindMCS
			p.logHold = 5000
		}),
		revert("- decoupled log", func(p *shoreStageParams) {
			// All the way back to the coupled design: one blocking mutex,
			// synchronous flushes on the insert path.
			p.logKind = sim.KindBlocking
			p.logHold = 25000
			p.logCoupled = true
		}),
		revert("- cuckoo bpool table", func(p *shoreStageParams) {
			// Per-bucket chain table: bucket latching returns on hits.
			p.bpoolHold = 6000
		}),
		revert("- bpool partitioning", func(p *shoreStageParams) {
			// The original global buffer-pool mutex.
			p.bpoolGlobal = true
			p.bpoolKind = sim.KindBlocking
			p.bpoolHold = 30000
		}),
		revert("- fsm refactor", func(p *shoreStageParams) {
			// Page latch back inside the allocation critical section, on
			// every insert.
			p.fsmKind = sim.KindBlocking
			p.fsmHold = 12000
			p.fsmLatchInCS = true
			p.fsmLatchEvery = 1
			p.fsmLatchHold = 25000
		}),
		revert("- lock mgr partitioning", func(p *shoreStageParams) {
			p.lockGlobal = true
			p.lockKind = sim.KindBlocking
			p.lockHold = 15000
		}),
		revert("- transit/clock fix", func(p *shoreStageParams) {
			p.clockHold = 50000
			p.clockEvery = 6
		}),
	}
}

// shoreModelNamed builds a model with an explicit display name.
func shoreModelNamed(p shoreStageParams, name string) InsertModel {
	p.name = name
	return shoreModel(p)
}
