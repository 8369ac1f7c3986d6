package witness

import (
	"fmt"
	"testing"

	"repro/internal/separability"
)

func detailFor(phi string, diffAt int) string {
	a := []byte(phi)
	b := append([]byte(nil), a...)
	b[diffAt] ^= 1
	lo := diffAt - 24
	if lo < 0 {
		lo = 0
	}
	hi := diffAt + 24
	if hi > len(a) {
		hi = len(a)
	}
	return fmt.Sprintf("first difference at byte %d: %q vs %q", diffAt, a[lo:hi], b[lo:hi])
}

func TestWitnessField(t *testing.T) {
	phi := "r0=0001;r1=0002;r2=0003;r3=0004;r4=0005;r5=1111;sp=0100;pc=0040;cc=0;" +
		"st=1;pend=0000;ipl=0;mem=deadbeef;ch:wp:free=48;"
	cases := []struct {
		diffAt int
		want   string
	}{
		{3, "r0"},   // r0 value, window starts at 0
		{43, "r5"},  // r5 value, window starts mid-string
		{66, "cc"},  // cc value
		{95, "mem"}, // inside the partition dump
		{112, "ch:wp:free"},
	}
	for _, c := range cases {
		w := &Witness{Detail: detailFor(phi, c.diffAt)}
		if got := w.Field(); got != c.want {
			t.Errorf("diff at %d: Field() = %q, want %q (detail %s)",
				c.diffAt, got, c.want, w.Detail)
		}
	}

	// Non-diff details resolve to no field.
	for _, d := range []string{
		`NEXTOP "swap" vs "send"`,
		`EXTRACT(c,OUTPUT) "a" vs "b"`,
		"lengths differ: 10 vs 12",
		"",
	} {
		w := &Witness{Detail: d}
		if got := w.Field(); got != "" {
			t.Errorf("detail %q: Field() = %q, want empty", d, got)
		}
	}

	// A window starting mid-field must not misattribute the difference.
	long := "mem=" + string(make([]byte, 100)) + ";"
	w := &Witness{Detail: detailFor(long, 60)}
	if got := w.Field(); got != "" {
		t.Errorf("mid-field window: Field() = %q, want empty", got)
	}
}

func TestQueryMatches(t *testing.T) {
	sys := SystemSpec{Kind: "verifysys", Leak: "RegisterLeak", Cut: true}
	w := &Witness{
		System:    sys,
		Condition: int(separability.Condition1),
		Colour:    "worker",
		Detail:    detailFor("r0=0001;r1=0002;r2=0003;r3=0004;r4=0005;r5=1111;", 43),
	}
	match := []Query{
		{},
		{System: &sys},
		{Conditions: []separability.Condition{separability.Condition1}},
		{Conditions: []separability.Condition{separability.Condition2, separability.Condition1}},
		{Colours: []string{"worker", "peer"}},
		{Field: "r5"},
		{System: &sys, Field: "r5", Colours: []string{"worker"}},
	}
	for i, q := range match {
		if !q.Matches(w) {
			t.Errorf("query %d should match", i)
		}
	}
	other := SystemSpec{Kind: "verifysys", Cut: true}
	reject := []Query{
		{System: &other},
		{Conditions: []separability.Condition{separability.Condition5}},
		{Colours: []string{"probe"}},
		{Field: "r4"},
		{Field: "r5", Colours: []string{"probe"}},
	}
	for i, q := range reject {
		if q.Matches(w) {
			t.Errorf("query %d should not match", i)
		}
	}
}

func TestQueryFieldPrefix(t *testing.T) {
	w := &Witness{Detail: detailFor("r5=1111;ch:wp:rd=3:aaaa;", 20)}
	if f := w.Field(); f != "ch:wp:rd" {
		t.Fatalf("Field() = %q, want ch:wp:rd", f)
	}
	if !(Query{Field: "ch"}).Matches(w) {
		t.Error("prefix query ch should match ch:wp:rd")
	}
	if !(Query{Field: "ch:wp:rd"}).Matches(w) {
		t.Error("exact query should match")
	}
	if (Query{Field: "ch:pw"}).Matches(w) {
		t.Error("ch:pw must not match ch:wp:rd")
	}
}

func TestFindOrder(t *testing.T) {
	ws := []*Witness{
		{ID: "a", Colour: "worker"},
		{ID: "b", Colour: "peer"},
		{ID: "c", Colour: "worker"},
	}
	got := Find(ws, Query{Colours: []string{"worker"}})
	if len(got) != 2 || got[0].ID != "a" || got[1].ID != "c" {
		t.Errorf("Find returned %v, want [a c] in store order", got)
	}
}
