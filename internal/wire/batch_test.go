package wire

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"junicon/internal/value"
)

// marshalBatch encodes vs the way AppendBatch frames them: each value
// marshaled, the run framed around the encodings.
func marshalBatch(vs []value.V) ([]byte, error) {
	items := make([][]byte, len(vs))
	for i, v := range vs {
		data, err := Marshal(v)
		if err != nil {
			return nil, err
		}
		items[i] = data
	}
	return AppendBatch(nil, items), nil
}

func TestBatchRoundTrip(t *testing.T) {
	cases := [][]value.V{
		{},
		{value.NewInt(1)},
		{value.NewInt(1), value.String("two"), value.NullV, value.Real(4.5)},
	}
	long := make([]value.V, 512)
	for i := range long {
		long[i] = value.NewInt(int64(i))
	}
	cases = append(cases, long)
	for _, vs := range cases {
		data, err := marshalBatch(vs)
		if err != nil {
			t.Fatalf("marshalBatch(%d values): %v", len(vs), err)
		}
		got, err := UnmarshalBatchInto(nil, data, DefaultLimits)
		if err != nil {
			t.Fatalf("UnmarshalBatchInto(%d values): %v", len(vs), err)
		}
		if len(got) != len(vs) {
			t.Fatalf("batch of %d decoded as %d", len(vs), len(got))
		}
		for i := range vs {
			if !deepEqual(vs[i], got[i]) {
				t.Fatalf("element %d: %s => %s", i, value.Image(vs[i]), value.Image(got[i]))
			}
		}
	}
}

// TestRunMatchesMarshalAndAppendBatch: a Run's payload is byte for byte
// what Marshal per value and AppendBatch per run make — over every kind of
// value, element length prefixes of one, two and three bytes, counts of
// one and two bytes, an unencodable value in the middle (which leaves the
// run as it was) and a reused run.
func TestRunMatchesMarshalAndAppendBatch(t *testing.T) {
	cyclic := value.NewList()
	cyclic.Put(cyclic)
	mixed := []value.V{
		value.NullV, value.NewInt(-3), value.NewInt(1 << 40),
		value.NewBig(new(big.Int).Lsh(big.NewInt(-7), 100)), value.Real(2.5),
		value.String(strings.Repeat("x", 200)), value.String(strings.Repeat("y", 20000)),
		value.NewCset("abc"), value.NewList(value.NewInt(1), value.String("two")),
		value.NewRecord("r", []string{"a"}, []value.V{value.NullV}),
		value.NewProc("fib", 1, nil),
	}
	rng := rand.New(rand.NewSource(11))
	for range 300 {
		mixed = append(mixed, randomValue(rng, 3))
	}
	var r Run
	for _, n := range []int{0, 1, 11, 127, 128, 311} {
		r.Reset()
		for i, v := range mixed[:n] {
			if err := r.Append(v); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
			if i == n/2 {
				if err := r.Append(cyclic); err == nil {
					t.Fatal("a cyclic list encoded")
				}
			}
		}
		want, err := marshalBatch(mixed[:n])
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Payload(); r.Len() != n || !bytes.Equal(got, want) {
			t.Fatalf("%d values: run has %d, payload %d bytes, want %d bytes of AppendBatch's", n, r.Len(), len(got), len(want))
		}
	}
}

func TestDecodeBatchRejectsForgeries(t *testing.T) {
	one, _ := Marshal(value.NewInt(7))
	good := AppendBatch(nil, [][]byte{one, one})
	cases := []struct {
		name string
		data []byte
	}{
		{"empty payload", nil},
		{"truncated count", []byte{0x80}},
		{"count beyond payload", []byte{0x05, 0x01}},
		{"count beyond MaxElems", binary.AppendUvarint(nil, 1<<30)},
		{"truncated element", good[:len(good)-1]},
		{"element length beyond payload", append(binary.AppendUvarint(nil, 1), 0x7f, 0x01)},
		{"element length beyond MaxBytes",
			append(binary.AppendUvarint(nil, 1), binary.AppendUvarint(nil, 1<<62)...)},
		{"trailing bytes", append(append([]byte{}, good...), 0x00)},
	}
	lim := Limits{MaxBytes: 1 << 16, MaxElems: 1 << 10, MaxDepth: 16}
	for _, c := range cases {
		if _, err := UnmarshalBatchInto(nil, c.data, lim); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
	// A zero-count batch is legal (an empty flush would encode this way):
	// it decodes to no elements, not an error.
	vs, err := UnmarshalBatchInto(nil, binary.AppendUvarint(nil, 0), lim)
	if err != nil || len(vs) != 0 {
		t.Errorf("zero-count batch: %v, %d elements", err, len(vs))
	}
}

// FuzzDecodeBatch pins that no batch payload makes the decoder panic or
// allocate unboundedly — the VALUES frame faces the same hostile peers as
// single-value frames — and that every successfully decoded batch survives
// a re-encode round trip element for element.
func FuzzDecodeBatch(f *testing.F) {
	mk := func(vs ...value.V) []byte {
		data, err := marshalBatch(vs)
		if err != nil {
			f.Fatalf("seed marshal: %v", err)
		}
		return data
	}
	f.Add(mk())
	f.Add(mk(value.NewInt(1)))
	f.Add(mk(value.NewInt(1), value.String("two"), value.NullV))
	f.Add(mk(value.NewList(value.NewInt(1)), value.NewSet(value.NewInt(2))))
	// Forged shapes: truncated batch, zero count with trailing bytes, a
	// count far beyond the payload, an oversized element length mid-batch.
	good := mk(value.NewInt(1), value.NewInt(2), value.NewInt(3))
	f.Add(good[:len(good)-2])
	f.Add([]byte{0x00, 0xff})
	f.Add(binary.AppendUvarint(nil, 1<<40))
	bad := binary.AppendUvarint(nil, 2)
	one, _ := Marshal(value.NewInt(9))
	bad = binary.AppendUvarint(bad, uint64(len(one)))
	bad = append(bad, one...)
	bad = binary.AppendUvarint(bad, 1<<50)
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		lim := Limits{MaxBytes: 1 << 16, MaxElems: 1 << 12, MaxDepth: 32}
		vs, err := UnmarshalBatchInto(nil, data, lim)
		if err != nil {
			return
		}
		re, err := marshalBatch(vs)
		if err != nil {
			t.Fatalf("re-marshal of decoded batch failed: %v", err)
		}
		vs2, err := UnmarshalBatchInto(nil, re, lim)
		if err != nil {
			t.Fatalf("re-unmarshal failed: %v", err)
		}
		if len(vs2) != len(vs) {
			t.Fatalf("round trip changed count: %d vs %d", len(vs), len(vs2))
		}
		for i := range vs {
			if !deepEqual(vs[i], vs2[i]) {
				t.Fatalf("element %d not stable: %s vs %s",
					i, value.Image(vs[i]), value.Image(vs2[i]))
			}
		}
	})
}
