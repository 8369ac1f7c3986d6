package separability

import "repro/internal/model"

// stateScope anchors a restore point for one per-state condition sweep,
// preferring the O(dirty) model.Checkpointer API (delta snapshots) and
// falling back to Save/Restore for systems without it. Both paths leave
// identical observable behaviour: reset() returns the system to the anchor
// state, close() does the same and releases any checkpoint resources. It is
// a value, so a scope opened per state stays off the heap.
type stateScope struct {
	sys model.SharedSystem
	ckp model.Checkpointer
	cp  model.Checkpoint
	ref model.StateRef
}

// openScope anchors at the system's current state.
func openScope(sys model.SharedSystem) stateScope {
	sc := stateScope{sys: sys}
	if ckp, ok := sys.(model.Checkpointer); ok {
		if cp := ckp.Checkpoint(); cp != nil {
			sc.ckp, sc.cp = ckp, cp
			return sc
		}
	}
	sc.ref = sys.Save()
	return sc
}

func (sc *stateScope) reset() {
	if sc.ckp != nil {
		sc.ckp.Rollback(sc.cp)
		return
	}
	sc.sys.Restore(sc.ref)
}

func (sc *stateScope) close() {
	if sc.ckp != nil {
		sc.ckp.Release(sc.cp)
		return
	}
	sc.sys.Restore(sc.ref)
}
