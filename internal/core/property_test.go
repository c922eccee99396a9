package core

import (
	"testing"
	"testing/quick"

	"junicon/internal/value"
)

// genFromBytes builds a small deterministic generator from fuzz bytes.
func genFromBytes(bs []byte) Gen {
	vs := make([]V, 0, len(bs))
	for _, b := range bs {
		vs = append(vs, value.NewInt(int64(b%16)))
	}
	return Values(vs...)
}

func imagesOf(vs []V) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = value.Image(v)
	}
	return out
}

func sameSeq(a, b []V) bool {
	if len(a) != len(b) {
		return false
	}
	ia, ib := imagesOf(a), imagesOf(b)
	for i := range ia {
		if ia[i] != ib[i] {
			return false
		}
	}
	return true
}

// Product cardinality: |a & b| == |a| * |b|.
func TestPropProductCardinality(t *testing.T) {
	f := func(a, b []byte) bool {
		if len(a) > 20 {
			a = a[:20]
		}
		if len(b) > 20 {
			b = b[:20]
		}
		n := Count(Product(genFromBytes(a), genFromBytes(b)))
		return n == len(a)*len(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Alternation is sequence concatenation.
func TestPropAltIsConcatenation(t *testing.T) {
	f := func(a, b []byte) bool {
		got := Drain(Alt(genFromBytes(a), genFromBytes(b)), 0)
		want := append(Drain(genFromBytes(a), 0), Drain(genFromBytes(b), 0)...)
		return sameSeq(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Limit laws: |e \ n| == min(|e|, n); prefix property.
func TestPropLimitLaws(t *testing.T) {
	f := func(a []byte, n uint8) bool {
		lim := int(n % 40)
		got := Drain(Limit(genFromBytes(a), lim), 0)
		all := Drain(genFromBytes(a), 0)
		want := all
		if lim < len(all) {
			want = all[:lim]
		}
		if lim == 0 {
			want = nil
		}
		return sameSeq(got, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Auto-restart: draining twice produces the same sequence, for every
// combinator shape.
func TestPropDrainIsIdempotent(t *testing.T) {
	shapes := []func(a, b []byte) Gen{
		func(a, b []byte) Gen { return genFromBytes(a) },
		func(a, b []byte) Gen { return Alt(genFromBytes(a), genFromBytes(b)) },
		func(a, b []byte) Gen { return Product(genFromBytes(a), genFromBytes(b)) },
		func(a, b []byte) Gen { return Limit(genFromBytes(a), 3) },
		func(a, b []byte) Gen { return Sequence(genFromBytes(a), genFromBytes(b)) },
		func(a, b []byte) Gen { return Promote(Unit(listOf(a))) },
	}
	for i, shape := range shapes {
		f := func(a, b []byte) bool {
			if len(a) > 10 {
				a = a[:10]
			}
			if len(b) > 10 {
				b = b[:10]
			}
			g := shape(a, b)
			first := Drain(g, 0)
			second := Drain(g, 0)
			return sameSeq(first, second)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("shape %d: %v", i, err)
		}
	}
}

// Restart mid-stream rewinds to the beginning.
func TestPropRestartRewinds(t *testing.T) {
	f := func(a []byte, k uint8) bool {
		if len(a) > 15 {
			a = a[:15]
		}
		g := Alt(genFromBytes(a), genFromBytes(a))
		want := Drain(g, 0)
		steps := int(k) % (len(want) + 1)
		for i := 0; i < steps; i++ {
			g.Next()
		}
		g.Restart()
		return sameSeq(Drain(g, 0), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Product associativity (as sequences of yielded right-operand values):
// (a & b) & c produces the same sequence as a & (b & c).
func TestPropProductAssociative(t *testing.T) {
	f := func(a, b, c []byte) bool {
		if len(a) > 8 {
			a = a[:8]
		}
		if len(b) > 8 {
			b = b[:8]
		}
		if len(c) > 8 {
			c = c[:8]
		}
		l := Product(Product(genFromBytes(a), genFromBytes(b)), genFromBytes(c))
		r := Product(genFromBytes(a), Product(genFromBytes(b), genFromBytes(c)))
		return sameSeq(Drain(l, 0), Drain(r, 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Promote of a list of n elements generates exactly n results.
func TestPropPromoteListLength(t *testing.T) {
	f := func(a []byte) bool {
		return Count(PromoteVal(listOf(a))) == len(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// NewGen over a slice equals Values over the slice.
func TestPropNewGenMatchesValues(t *testing.T) {
	f := func(a []byte) bool {
		if len(a) > 30 {
			a = a[:30]
		}
		want := Drain(genFromBytes(a), 0)
		g := NewGen(func(yield func(V) bool) {
			for _, b := range a {
				if !yield(value.NewInt(int64(b % 16))) {
					return
				}
			}
		})
		got := Drain(g, 0)
		return sameSeq(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func listOf(bs []byte) *value.List {
	l := value.NewList()
	for _, b := range bs {
		l.Put(value.NewInt(int64(b % 16)))
	}
	return l
}
