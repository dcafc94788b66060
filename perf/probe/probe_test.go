package probe

import (
	"testing"

	"repro/internal/core"
)

func TestAllProbesRun(t *testing.T) {
	res, err := All(core.StageConfig(core.StageFinal))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		t.Logf("%-28s %8d iters %10.1f ns/op", r.Name, r.Iters, r.NsOp)
		if r.NsOp <= 0 {
			t.Errorf("%s: non-positive cost", r.Name)
		}
	}
}
