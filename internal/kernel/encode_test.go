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
