package kernel

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/machine"
	"repro/internal/model"
)

// draw is one recorded model.Rand call: Intn(arg) returned val, or (arg 0)
// Uint32 returned val.
type draw struct{ arg, val int }

// drawRecorder is a model.Rand that logs every draw. Intn comes from a
// seeded source; Uint32 returns 1, 2, 3, … so that each written word names
// the draw that produced it and can be told apart from the zeroed RAM.
type drawRecorder struct {
	src   *rand.Rand
	seq   uint32
	draws []draw
}

func (r *drawRecorder) Intn(n int) int {
	v := r.src.Intn(n)
	r.draws = append(r.draws, draw{n, v})
	return v
}

func (r *drawRecorder) Uint32() uint32 {
	r.seq++
	r.draws = append(r.draws, draw{0, int(r.seq)})
	return r.seq
}

// oldRingSlack is the reference walk perturbRingSlack replaced: every slot
// is visited, at index (head+count+j) % capa, and only the first capa-count
// of them draw.
func oldRingSlack(m *machine.Machine, base, bufOff, capa Word, r model.Rand) {
	head := m.ReadPhys(base + 0)
	count := m.ReadPhys(base + 2)
	for j := Word(0); j < capa; j++ {
		idx := (head + count + j) % capa
		if j < capa-count {
			if r.Intn(2) == 0 {
				m.WritePhys(base+bufOff+idx, Word(r.Uint32()))
			}
		}
	}
}

// The ring header sits at slackBase, its slots slackBufOff words later.
const slackBase, slackBufOff = 0x100, 8

// write is one RAM word a slack walk stored.
type write struct{ addr, val Word }

// runSlack runs walk on a zeroed machine whose ring header holds head and
// count, and returns the draws and the RAM writes in write order.
func runSlack(t *testing.T, walk func(*machine.Machine, *drawRecorder), head, count Word, seed int64) ([]draw, []write) {
	t.Helper()
	const ramWords = 0x200
	m := machine.New(ramWords)
	m.WritePhys(slackBase+0, head)
	m.WritePhys(slackBase+2, count)
	before := append([]Word(nil), m.RAMSlice(0, ramWords)...)
	r := &drawRecorder{src: rand.New(rand.NewSource(seed))}
	walk(m, r)
	var ws []write
	for a, v := range m.RAMSlice(0, ramWords) {
		if v != before[a] {
			ws = append(ws, write{Word(a), v})
		}
	}
	// Each stored value is the sequence number of its Uint32 draw.
	sort.Slice(ws, func(i, j int) bool { return ws[i].val < ws[j].val })
	if len(ws) != int(r.seq) {
		t.Fatalf("head %d count %d: %d Uint32 draws but %d words changed", head, count, r.seq, len(ws))
	}
	return r.draws, ws
}

// TestPerturbRingSlackMatchesFullWalk pins the free-slot walk against the
// full-ring loop it replaced: the same draws in the same order with the
// same arguments, and the same (address, value) writes, for every head and
// count of several ring sizes, plus an over-full count.
func TestPerturbRingSlackMatchesFullWalk(t *testing.T) {
	type ringCase struct{ capa, head, count Word }
	var cases []ringCase
	for _, capa := range []Word{1, 2, 3, 7, 48} {
		for head := Word(0); head < capa; head++ {
			for count := Word(0); count <= capa; count++ {
				cases = append(cases, ringCase{capa, head, count})
			}
		}
	}
	// A corrupt count above capa: every slot draws.
	cases = append(cases, ringCase{7, 3, 9})

	for _, tc := range cases {
		name := fmt.Sprintf("capa=%d head=%d count=%d", tc.capa, tc.head, tc.count)
		seed := int64(tc.capa)<<16 | int64(tc.head)<<8 | int64(tc.count)
		a := &Adapter{}
		gotDraws, gotWrites := runSlack(t, func(m *machine.Machine, r *drawRecorder) {
			a.K = &Kernel{m: m}
			a.perturbRingSlack(chanEnd{base: slackBase, hdr: slackBase, buf: slackBase + slackBufOff}, tc.capa, r)
		}, tc.head, tc.count, seed)
		wantDraws, wantWrites := runSlack(t, func(m *machine.Machine, r *drawRecorder) {
			oldRingSlack(m, slackBase, slackBufOff, tc.capa, r)
		}, tc.head, tc.count, seed)
		if !reflect.DeepEqual(gotDraws, wantDraws) {
			t.Fatalf("%s: draws %v, want %v", name, gotDraws, wantDraws)
		}
		if !reflect.DeepEqual(gotWrites, wantWrites) {
			t.Fatalf("%s: writes %v, want %v", name, gotWrites, wantWrites)
		}
	}
}
