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
func openScope(sys model.SharedSystem) stateScope { return openScopeAt(sys, nil) }

// openScopeAt anchors at the system's current state; ref, when non-nil, is
// an existing StateRef of that same state, reused to avoid a redundant
// Save on the fallback path.
func openScopeAt(sys model.SharedSystem, ref model.StateRef) stateScope {
	sc := stateScope{sys: sys}
	if ckp, ok := sys.(model.Checkpointer); ok {
		if cp := ckp.Checkpoint(); cp != nil {
			sc.ckp, sc.cp = ckp, cp
			return sc
		}
	}
	if ref == nil {
		ref = sys.Save()
	}
	sc.ref = ref
	return sc
}

// dirty consults the system's DirtyTracker for the set of colours possibly
// mutated since the anchor (or the most recent reset): bit ci covers
// Colours()[ci]. ok=false — no checkpoint, no tracker, or the tracker
// declined — means the caller must assume everything is dirty.
func (sc *stateScope) dirty() (uint64, bool) {
	if sc.ckp == nil {
		return 0, false
	}
	dt, ok := sc.sys.(model.DirtyTracker)
	if !ok {
		return 0, false
	}
	return dt.DirtyColours(sc.cp)
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
