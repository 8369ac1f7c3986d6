// Package mls implements the multilevel-security substrate: Bell–LaPadula
// labels (hierarchical levels crossed with category sets), the dominance
// lattice, and a reference monitor enforcing the ss- and *-properties [6].
//
// In the paper's architecture this policy machinery lives *inside trusted
// components* (the file-server, the printer-server, the Guard) — never in
// the separation kernel, which knows nothing of it. The kernelized baseline
// (package baseline) instead applies it system-wide, which is what forces
// trusted processes into existence.
package mls

import (
	"fmt"
	"strings"
)

// Level is a hierarchical sensitivity level.
type Level int

// The classic level ladder.
const (
	Unclassified Level = iota
	Confidential
	Secret
	TopSecret
)

// String names the level.
func (l Level) String() string {
	switch l {
	case Unclassified:
		return "UNCLASSIFIED"
	case Confidential:
		return "CONFIDENTIAL"
	case Secret:
		return "SECRET"
	case TopSecret:
		return "TOP SECRET"
	}
	return fmt.Sprintf("LEVEL%d", int(l))
}

// CatSet is a set of compartments/categories, as a bitmask. Category
// numbering is policy-defined; Categories provides a registry.
type CatSet uint64

// Has reports membership of category bit i.
func (c CatSet) Has(i int) bool { return c&(1<<i) != 0 }

// With returns c plus category bit i.
func (c CatSet) With(i int) CatSet { return c | 1<<i }

// SubsetOf reports c ⊆ o.
func (c CatSet) SubsetOf(o CatSet) bool { return c&^o == 0 }

// Label is a full security label: level plus category set.
type Label struct {
	Level Level
	Cats  CatSet
}

// L builds a label.
func L(level Level, cats ...int) Label {
	var cs CatSet
	for _, c := range cats {
		cs = cs.With(c)
	}
	return Label{Level: level, Cats: cs}
}

// Dominates reports whether l ⊒ o: information at o may flow to l.
func (l Label) Dominates(o Label) bool {
	return l.Level >= o.Level && o.Cats.SubsetOf(l.Cats)
}

// Equal reports label equality.
func (l Label) Equal(o Label) bool { return l == o }

// Lub returns the least upper bound (join) of two labels.
func Lub(a, b Label) Label {
	lv := a.Level
	if b.Level > lv {
		lv = b.Level
	}
	return Label{Level: lv, Cats: a.Cats | b.Cats}
}

// Glb returns the greatest lower bound (meet) of two labels.
func Glb(a, b Label) Label {
	lv := a.Level
	if b.Level < lv {
		lv = b.Level
	}
	return Label{Level: lv, Cats: a.Cats & b.Cats}
}

// String renders the label, e.g. "SECRET{0,3}".
func (l Label) String() string {
	if l.Cats == 0 {
		return l.Level.String()
	}
	var cats []string
	for i := 0; i < 64; i++ {
		if l.Cats.Has(i) {
			cats = append(cats, fmt.Sprintf("%d", i))
		}
	}
	return l.Level.String() + "{" + strings.Join(cats, ",") + "}"
}

// Categories is a registry naming category bits.
type Categories struct {
	names []string
}

// NewCategories builds a registry from names (bit i = names[i]).
func NewCategories(names ...string) *Categories {
	return &Categories{names: append([]string(nil), names...)}
}

// Bit returns the bit index of a named category.
func (c *Categories) Bit(name string) (int, bool) {
	for i, n := range c.names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// Set builds a CatSet from names; unknown names are ignored.
func (c *Categories) Set(names ...string) CatSet {
	var cs CatSet
	for _, n := range names {
		if i, ok := c.Bit(n); ok {
			cs = cs.With(i)
		}
	}
	return cs
}

// Name returns the name of bit i.
func (c *Categories) Name(i int) string {
	if i >= 0 && i < len(c.names) {
		return c.names[i]
	}
	return fmt.Sprintf("cat%d", i)
}

// Compact renders a label as "level/cats-hex" for embedding in messages.
func (l Label) Compact() string {
	return fmt.Sprintf("%d/%x", int(l.Level), uint64(l.Cats))
}

// ParseCompact parses the Compact rendering.
func ParseCompact(s string) (Label, error) {
	var lvl int
	var cats uint64
	if _, err := fmt.Sscanf(s, "%d/%x", &lvl, &cats); err != nil {
		return Label{}, fmt.Errorf("mls: bad compact label %q: %w", s, err)
	}
	return Label{Level: Level(lvl), Cats: CatSet(cats)}, nil
}
