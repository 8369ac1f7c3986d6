package verifysys

import (
	"fmt"
	"sort"

	"repro/internal/minisue"
	"repro/internal/model"
	"repro/internal/separability"
)

// An ExhaustiveTarget is one named enumerable system configuration the
// sharded exhaustive checker can sweep. The registry gives every process of
// a verification fleet — coordinator, workers, merge step — one shared
// vocabulary for WHAT is being verified, so shard artifacts stamped with a
// target name can never be merged across different systems.
type ExhaustiveTarget struct {
	// Name is the stable identifier ("family:variant") stamped into shard
	// artifacts and passed to `sepverify -target`. Only exhaustive target
	// names contain a ':', so they never collide with deployment names.
	Name string
	// Secure reports the expected verdict, letting drivers pick an exit
	// status (a leaky target that passes is as alarming as an honest one
	// that fails).
	Secure bool
	// Build boots a fresh instance; each call returns an independent one.
	Build func() model.Enumerable
}

// ExhaustiveTargets returns every registered target, sorted by name.
func ExhaustiveTargets() []ExhaustiveTarget {
	out := make([]ExhaustiveTarget, len(exhaustiveTargets))
	copy(out, exhaustiveTargets)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// FindExhaustiveTarget resolves a target name.
func FindExhaustiveTarget(name string) (ExhaustiveTarget, error) {
	for _, t := range exhaustiveTargets {
		if t.Name == name {
			return t, nil
		}
	}
	names := make([]string, 0, len(exhaustiveTargets))
	for _, t := range ExhaustiveTargets() {
		names = append(names, t.Name)
	}
	return ExhaustiveTarget{}, fmt.Errorf("verifysys: unknown exhaustive target %q (have %v)", name, names)
}

var exhaustiveTargets = buildExhaustiveTargets()

func buildExhaustiveTargets() []ExhaustiveTarget {
	var out []ExhaustiveTarget
	for _, v := range []minisue.Variant{
		minisue.Secure, minisue.RegisterLeak, minisue.InterruptMisroute, minisue.SharedCell,
	} {
		v := v
		out = append(out, ExhaustiveTarget{
			Name:   "minisue:" + minisue.VariantName(v),
			Secure: v == minisue.Secure,
			Build:  func() model.Enumerable { return minisue.New(v) },
		})
	}
	for v := separability.ToySecure; v <= separability.ToyNextOpLeak; v++ {
		v := v
		out = append(out, ExhaustiveTarget{
			Name:   "toy:" + separability.ToyVariantName(v),
			Secure: v == separability.ToySecure,
			Build:  func() model.Enumerable { return separability.NewToySystem(v) },
		})
	}
	return out
}
