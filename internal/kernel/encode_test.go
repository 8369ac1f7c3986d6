package kernel

import (
	"fmt"
	"testing"
)

// The append helpers must render exactly what the fmt verbs they replace
// render, for every word.
func TestHexHelpersMatchFmt(t *testing.T) {
	var buf []byte
	for w := 0; w <= 0xFFFF; w++ {
		if buf = hexWord(buf[:0], Word(w)); string(buf) != fmt.Sprintf("%04x", w) {
			t.Fatalf("hexWord(%#x) = %q", w, buf)
		}
		if buf = appendHex(buf[:0], Word(w)); string(buf) != fmt.Sprintf("%x", w) {
			t.Fatalf("appendHex(%#x) = %q", w, buf)
		}
	}
}

// Every word of a gathered vector, in stripe and tail alike, and the
// vector's length reach the fingerprint: zero vectors of every length and
// every single-word change of them fingerprint distinctly.
func TestFingerprintCoversEveryWord(t *testing.T) {
	seen := map[uint64]string{}
	add := func(ws []Word, what string) {
		t.Helper()
		fp := fingerprint(ws)
		if prev, ok := seen[fp]; ok {
			t.Fatalf("%s and %s share fingerprint %016x", prev, what, fp)
		}
		seen[fp] = what
	}
	for n := 0; n <= 40; n++ {
		ws := make([]Word, n)
		add(ws, fmt.Sprintf("zeros[%d]", n))
		for i := range ws {
			for _, v := range []Word{1, 0x8000, 0xFFFF} {
				ws[i] = v
				add(ws, fmt.Sprintf("zeros[%d] with [%d]=%#x", n, i, v))
			}
			ws[i] = 0
		}
	}
}
