// Package wire implements the length-prefixed binary codec that carries
// Unicon values across process boundaries for remote pipes (see
// internal/remote). The paper's pipe |>e transports values through an
// in-memory blocking queue (§3B); nothing in the calculus requires both
// ends of that queue to share an address space, so this codec defines the
// on-the-wire form of every transportable value.V:
//
//   - null, integers (with transparent big-integer promotion), reals,
//     strings and csets encode by value;
//   - lists, tables, sets and records encode structurally (one level of
//     reference semantics is necessarily lost: the receiving side gets a
//     fresh structure, exactly as a co-expression environment snapshot
//     copies locals);
//   - procedures, co-expressions, pipes and any other host-resident value
//     encode as typed opaque handles (Opaque) that carry the original type
//     name and image. Using such a handle where a procedure or
//     co-expression is required raises the ordinary Icon runtime error
//     (loud failure), because Opaque deliberately implements neither the
//     invocation nor the activation protocol.
//
// Every variable is dereferenced before encoding: the wire carries values,
// never references, matching @p's "out.take()" semantics which also
// dereferences.
//
// Wire format: a 1-byte type tag followed by a tag-specific payload.
// Variable-length quantities (string bytes, element counts, big-integer
// magnitudes) are length-prefixed with unsigned varints. Decoding enforces
// configurable limits (Limits) so a malicious or corrupt peer cannot force
// unbounded allocation; the fuzz tests pin that Unmarshal never panics.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"

	"junicon/internal/value"
)

// Type tags. The tag space is append-only: new tags may be added, existing
// tags must keep their number so mixed-version peers fail cleanly rather
// than misdecode.
const (
	tagNull   = 0x00
	tagInt    = 0x01 // zigzag varint int64
	tagBig    = 0x02 // sign byte, varint len, magnitude bytes (big-endian)
	tagReal   = 0x03 // 8-byte IEEE 754 bits, big-endian
	tagString = 0x04 // varint len, bytes
	tagCset   = 0x05 // varint len, member bytes (sorted UTF-8)
	tagList   = 0x06 // varint count, elements
	tagTable  = 0x07 // default value, varint count, key/value pairs
	tagSet    = 0x08 // varint count, members
	tagRecord = 0x09 // name, varint arity, field names, field values
	tagOpaque = 0x0a // kind string, description string
)

// Limits bounds decoding so frame lengths from the network cannot force
// unbounded allocation.
type Limits struct {
	// MaxBytes bounds any single length-prefixed byte payload (strings,
	// big-integer magnitudes, cset member strings).
	MaxBytes int
	// MaxElems bounds any single element count (list length, table size,
	// set size, record arity).
	MaxElems int
	// MaxDepth bounds structural nesting; it also terminates decoding of
	// adversarial deeply-nested inputs and encoding of cyclic structures.
	MaxDepth int
}

// DefaultLimits are generous enough for any benchmark workload while
// keeping a single value under ~16MiB of decoded payload per string.
var DefaultLimits = Limits{
	MaxBytes: 16 << 20,
	MaxElems: 1 << 20,
	MaxDepth: 64,
}

// ErrTooDeep is returned when encoding or decoding exceeds Limits.MaxDepth —
// on the encode side this is how cyclic structures (a list containing
// itself) surface as errors instead of hangs.
var ErrTooDeep = errors.New("wire: structure nesting exceeds depth limit")

// ErrTooLarge is returned when a decoded length prefix exceeds the limits.
var ErrTooLarge = errors.New("wire: length prefix exceeds limit")

// ErrOpaque is returned by MarshalStrict when a value would have to encode
// as an opaque handle: host-resident state (a procedure, co-expression,
// pipe) that a structural copy cannot carry. Checkpoint encoding uses the
// strict mode — a snapshot holding a dead handle would not resume, it
// would merely fail later, so the refusal must happen at snapshot time.
var ErrOpaque = errors.New("wire: value is host-resident and cannot encode strictly")

// Opaque is the decoded form of a value that cannot cross address spaces:
// procedures, co-expressions, pipes, reified variables' underlying hosts.
// It is a first-class value (it can be stored, compared by identity,
// printed) but any attempt to invoke or activate it raises the same Icon
// runtime error an integer would — remote use fails loudly, as required.
type Opaque struct {
	// Kind is the Icon type name of the original value ("procedure",
	// "co-expression", …).
	Kind string
	// Desc is the image of the original value on the encoding side, kept
	// for diagnostics.
	Desc string
}

// Type returns the opaque handle's own type name. It deliberately does NOT
// return Kind: an opaque procedure must not masquerade as an invocable
// procedure in type tests; it is a dead handle and says so.
func (o *Opaque) Type() string { return "remote-handle" }

// Image identifies the handle and its origin.
func (o *Opaque) Image() string { return fmt.Sprintf("remote-handle(%s %s)", o.Kind, o.Desc) }

// Marshal encodes v (dereferenced) under DefaultLimits.
func Marshal(v value.V) ([]byte, error) { return MarshalLimits(v, DefaultLimits) }

// MarshalLimits encodes v under explicit limits.
func MarshalLimits(v value.V, lim Limits) ([]byte, error) { return marshal(v, lim, false) }

// MarshalStrict encodes v under explicit limits, refusing (ErrOpaque) any
// value that would degrade to an opaque handle instead of silently
// encoding a dead proxy. Pre-existing *Opaque values — handles that
// already crossed a boundary once — still re-encode, keeping multi-hop
// honesty; only the lossy host-value-to-handle step is refused.
func MarshalStrict(v value.V, lim Limits) ([]byte, error) { return marshal(v, lim, true) }

func marshal(v value.V, lim Limits, strict bool) ([]byte, error) {
	b, err := appendValue(nil, v, lim, 0, strict)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Unmarshal decodes one value under DefaultLimits, requiring the buffer to
// be fully consumed.
func Unmarshal(data []byte) (value.V, error) { return UnmarshalLimits(data, DefaultLimits) }

// UnmarshalLimits decodes one value under explicit limits.
func UnmarshalLimits(data []byte, lim Limits) (value.V, error) {
	r := &Reader{buf: data, lim: lim}
	v, err := r.value(0)
	if err != nil {
		return nil, err
	}
	if r.pos != len(r.buf) {
		return nil, fmt.Errorf("wire: %d trailing bytes after value", len(r.buf)-r.pos)
	}
	return v, nil
}

// ---- encoding ----

// AppendString appends s as the codec frames every string: a uvarint
// length, then the bytes. Exported with Reader for the remote protocol's
// frame payloads, which are built from the same two primitives.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendValue appends the encoding of v to b. On an error the bytes it
// appended are garbage; callers keep b[:len(b)] from before the call.
func appendValue(b []byte, v value.V, lim Limits, depth int, strict bool) ([]byte, error) {
	if depth > lim.MaxDepth {
		return b, ErrTooDeep
	}
	var err error
	switch x := value.Deref(v).(type) {
	case nil, value.Null:
		b = append(b, tagNull)
	case value.Integer:
		if i, ok := x.Int64(); ok {
			b = binary.AppendVarint(append(b, tagInt), i)
		} else {
			big := x.Big()
			sign := byte(0)
			if big.Sign() < 0 {
				sign = 1
			}
			mag := big.Bytes()
			b = append(binary.AppendUvarint(append(b, tagBig, sign), uint64(len(mag))), mag...)
		}
	case value.Real:
		b = binary.BigEndian.AppendUint64(append(b, tagReal), math.Float64bits(float64(x)))
	case value.String:
		b = AppendString(append(b, tagString), string(x))
	case *value.Cset:
		b = AppendString(append(b, tagCset), x.Members())
	case *value.List:
		b = binary.AppendUvarint(append(b, tagList), uint64(x.Len()))
		for i := 1; i <= x.Len(); i++ {
			e, _ := x.At(i)
			if b, err = appendValue(b, e, lim, depth+1, strict); err != nil {
				return b, err
			}
		}
	case *value.Table:
		if b, err = appendValue(append(b, tagTable), x.Default(), lim, depth+1, strict); err != nil {
			return b, err
		}
		keys := x.Keys()
		b = binary.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			if b, err = appendValue(b, k, lim, depth+1, strict); err != nil {
				return b, err
			}
			if b, err = appendValue(b, x.Get(k), lim, depth+1, strict); err != nil {
				return b, err
			}
		}
	case *value.Set:
		members := x.Members()
		b = binary.AppendUvarint(append(b, tagSet), uint64(len(members)))
		for _, m := range members {
			if b, err = appendValue(b, m, lim, depth+1, strict); err != nil {
				return b, err
			}
		}
	case *value.Record:
		b = binary.AppendUvarint(AppendString(append(b, tagRecord), x.Name), uint64(len(x.Fields)))
		for _, f := range x.Fields {
			b = AppendString(b, f)
		}
		for _, fv := range x.Values {
			if b, err = appendValue(b, fv, lim, depth+1, strict); err != nil {
				return b, err
			}
		}
	case *Opaque:
		// Re-encoding a handle keeps its original kind, so a value that
		// bounces through several hops stays honest about its origin.
		b = AppendString(AppendString(append(b, tagOpaque), x.Kind), x.Desc)
	default:
		// Procedures, natives, co-expressions, pipes, anything host-bound:
		// a typed opaque handle — or, in strict mode, a refusal.
		if strict {
			return b, fmt.Errorf("%w: %s %s", ErrOpaque, x.Type(), x.Image())
		}
		b = AppendString(AppendString(append(b, tagOpaque), x.Type()), x.Image())
	}
	return b, nil
}

// ---- decoding ----

// Reader is the bounds-checked cursor every decode in this package runs
// on: each length prefix is checked against the limits and the bytes that
// remain before anything is sliced or allocated. The remote protocol parses
// its frame payloads (OPEN, SNAPSHOT) with it too.
type Reader struct {
	buf []byte
	pos int
	lim Limits
}

// NewReader reads data under lim.
func NewReader(data []byte, lim Limits) *Reader { return &Reader{buf: data, lim: lim} }

// Rest returns the bytes not yet read. Like Bytes, it aliases the input.
func (r *Reader) Rest() []byte { return r.buf[r.pos:] }

// Byte reads one byte.
func (r *Reader) Byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, errors.New("wire: truncated value")
	}
	c := r.buf[r.pos]
	r.pos++
	return c, nil
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	u, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errors.New("wire: bad uvarint")
	}
	r.pos += n
	return u, nil
}

func (r *Reader) varint() (int64, error) {
	i, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, errors.New("wire: bad varint")
	}
	r.pos += n
	return i, nil
}

// Bytes reads a length-prefixed byte payload, enforcing MaxBytes and
// remaining-buffer bounds before allocating. The result aliases the input.
func (r *Reader) Bytes() ([]byte, error) {
	u, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if u > uint64(r.lim.MaxBytes) {
		return nil, ErrTooLarge
	}
	n := int(u)
	if n > len(r.buf)-r.pos {
		return nil, errors.New("wire: truncated byte payload")
	}
	out := r.buf[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

// Str reads a length-prefixed string: Bytes, copied.
func (r *Reader) Str() (string, error) {
	b, err := r.Bytes()
	return string(b), err
}

// count reads an element count, bounding it both by MaxElems and by the
// bytes actually remaining (each element takes at least one tag byte), so
// a forged huge count cannot pre-allocate unbounded memory.
func (r *Reader) count() (int, error) {
	u, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if u > uint64(r.lim.MaxElems) || u > uint64(len(r.buf)-r.pos) {
		return 0, ErrTooLarge
	}
	return int(u), nil
}

func (r *Reader) value(depth int) (value.V, error) {
	if depth > r.lim.MaxDepth {
		return nil, ErrTooDeep
	}
	tag, err := r.Byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNull:
		return value.NullV, nil
	case tagInt:
		i, err := r.varint()
		if err != nil {
			return nil, err
		}
		return value.IntV(i), nil
	case tagBig:
		sign, err := r.Byte()
		if err != nil {
			return nil, err
		}
		mag, err := r.Bytes()
		if err != nil {
			return nil, err
		}
		n := new(big.Int).SetBytes(mag)
		if sign == 1 {
			n.Neg(n)
		} else if sign != 0 {
			return nil, fmt.Errorf("wire: bad big-integer sign byte %#x", sign)
		}
		return value.NewBig(n), nil
	case tagReal:
		if len(r.buf)-r.pos < 8 {
			return nil, errors.New("wire: truncated real")
		}
		bits := binary.BigEndian.Uint64(r.buf[r.pos:])
		r.pos += 8
		return value.Real(math.Float64frombits(bits)), nil
	case tagString:
		s, err := r.Str()
		if err != nil {
			return nil, err
		}
		return value.String(s), nil
	case tagCset:
		s, err := r.Str()
		if err != nil {
			return nil, err
		}
		return value.NewCset(s), nil
	case tagList:
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		l := value.NewList()
		for i := 0; i < n; i++ {
			e, err := r.value(depth + 1)
			if err != nil {
				return nil, err
			}
			l.Put(e)
		}
		return l, nil
	case tagTable:
		def, err := r.value(depth + 1)
		if err != nil {
			return nil, err
		}
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		t := value.NewTable(def)
		for i := 0; i < n; i++ {
			k, err := r.value(depth + 1)
			if err != nil {
				return nil, err
			}
			v, err := r.value(depth + 1)
			if err != nil {
				return nil, err
			}
			t.Set(k, v)
		}
		return t, nil
	case tagSet:
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		s := value.NewSet()
		for i := 0; i < n; i++ {
			m, err := r.value(depth + 1)
			if err != nil {
				return nil, err
			}
			s.Insert(m)
		}
		return s, nil
	case tagRecord:
		name, err := r.Str()
		if err != nil {
			return nil, err
		}
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		fields := make([]string, n)
		for i := range fields {
			if fields[i], err = r.Str(); err != nil {
				return nil, err
			}
		}
		values := make([]value.V, n)
		for i := range values {
			if values[i], err = r.value(depth + 1); err != nil {
				return nil, err
			}
		}
		return value.NewRecord(name, fields, values), nil
	case tagOpaque:
		kind, err := r.Str()
		if err != nil {
			return nil, err
		}
		desc, err := r.Str()
		if err != nil {
			return nil, err
		}
		return &Opaque{Kind: kind, Desc: desc}, nil
	default:
		return nil, fmt.Errorf("wire: unknown type tag %#x", tag)
	}
}
