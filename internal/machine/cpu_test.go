package machine

import (
	"reflect"
	"testing"
	"unsafe"
)

// fillDistinct sets every Word leaf of v (a struct, array or Word, reached
// through any depth of nesting) to the next value of *next and every bool
// to true, so no two Word leaves are equal and none is zero. It fails the
// test on a leaf kind it does not know, so a new kind of cpu field is
// noticed here rather than silently left zero.
func fillDistinct(t *testing.T, v reflect.Value, next *Word) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			// cpu's fields are unexported; address them directly.
			fillDistinct(t, reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem(), next)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), next)
		}
	case reflect.Uint16:
		*next++
		v.SetUint(uint64(*next))
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("cpu block holds a %s leaf; teach fillDistinct and wire.go about it", v.Type())
	}
}

// TestCPUBlockRoundTrip sets every field and array element of the cpu
// block to a distinct non-zero value and checks that both checkpoint paths
// reproduce it exactly: the wire codec (which lists the fields by hand, so
// a field added to cpu but not to wire.go fails here) and the delta
// checkpoint (which copies the block whole).
func TestCPUBlockRoundTrip(t *testing.T) {
	var want cpu
	var next Word
	fillDistinct(t, reflect.ValueOf(&want).Elem(), &next)

	t.Run("wire", func(t *testing.T) {
		m := New(0x100)
		m.cpu = want
		b, err := m.Snapshot().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		s, err := DecodeSnapshot(b)
		if err != nil {
			t.Fatal(err)
		}
		r := New(0x100)
		if err := r.Restore(s); err != nil {
			t.Fatal(err)
		}
		if r.cpu != want {
			t.Fatalf("wire round trip lost cpu state:\n got %+v\nwant %+v", r.cpu, want)
		}
	})

	t.Run("delta", func(t *testing.T) {
		m := New(0x100)
		m.cpu = want
		d := m.DeltaSnapshot()
		defer m.EndDelta(d)
		m.Reset()
		if m.cpu == want {
			t.Fatal("Reset left the cpu block unchanged")
		}
		m.DeltaRestore(d)
		if m.cpu != want {
			t.Fatalf("delta rollback lost cpu state:\n got %+v\nwant %+v", m.cpu, want)
		}
	})
}
