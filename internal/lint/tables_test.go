package lint

import (
	"go/types"
	"testing"
)

// TestSchedTablesMatchSched resolves every sched entry point named in the
// ctx-propagation and goroutine-capture tables to an exported function of
// internal/sched, so renaming or deleting a runner cannot leave a table
// entry that silently matches nothing.
func TestSchedTablesMatchSched(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(loader.Module + "/internal/sched")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ table, name string }
	var entries []entry
	for from, to := range uncancellableSched {
		entries = append(entries, entry{"uncancellableSched", from}, entry{"uncancellableSched", to})
	}
	for name := range spawnFuncs {
		entries = append(entries, entry{"spawnFuncs", name})
	}
	for _, e := range entries {
		fn, ok := pkg.Pkg.Scope().Lookup(e.name).(*types.Func)
		if !ok || !fn.Exported() {
			t.Errorf("%s names %q, which is not an exported func of internal/sched", e.table, e.name)
		}
	}
}
