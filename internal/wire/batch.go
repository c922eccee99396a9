package wire

import (
	"encoding/binary"
	"fmt"

	"junicon/internal/value"
)

// Batch framing: the remote protocol's VALUES frame carries a run of
// wire-encoded values in one payload, amortizing the per-frame header and
// syscall the same way a batched pipe amortizes the per-value queue
// handshake. The layout is a uvarint element count followed by each
// element as a uvarint length prefix and its Marshal bytes. Decoding
// enforces the same Limits discipline as single-value decoding: the count
// is bounded by MaxElems and each element by MaxBytes, both checked
// against the remaining payload before any allocation, so a forged count
// or length cannot force unbounded work.

// AppendBatch appends the batch framing of the already-marshaled items to
// dst and returns the extended buffer, so a server flushing thousands of
// runs can recycle one buffer instead of allocating per flush.
func AppendBatch(dst []byte, items [][]byte) []byte {
	size := binary.MaxVarintLen64
	for _, it := range items {
		size += binary.MaxVarintLen64 + len(it)
	}
	if cap(dst)-len(dst) < size {
		grown := make([]byte, len(dst), len(dst)+size)
		copy(grown, dst)
		dst = grown
	}
	dst = binary.AppendUvarint(dst, uint64(len(items)))
	for _, it := range items {
		dst = binary.AppendUvarint(dst, uint64(len(it)))
		dst = append(dst, it...)
	}
	return dst
}

// A Run is one batch payload under construction: Append encodes each
// value straight into the run's one buffer, behind its length prefix, and
// Payload frames the run in place, so a value costs no buffer of its own
// and no copy. Its bytes are AppendBatch's over the values' Marshal
// encodings. Reset keeps the buffer for the next run.
type Run struct {
	buf []byte // runHead bytes kept for the count prefix, then the elements
	n   int
}

// runHead is room for the widest count prefix, which Payload writes
// right-aligned against the first element.
const runHead = binary.MaxVarintLen64

// Append encodes v (dereferenced) under DefaultLimits as the run's next
// element. A value that does not encode leaves the run as it was.
func (r *Run) Append(v value.V) error {
	if len(r.buf) == 0 {
		r.buf = append(r.buf, make([]byte, runHead)...)
	}
	// One byte is kept for the length prefix; a longer prefix moves the
	// element up.
	at := len(r.buf)
	b, err := appendValue(append(r.buf, 0), v, DefaultLimits, 0, false)
	if err != nil {
		r.buf = b[:at]
		return err
	}
	var prefix [binary.MaxVarintLen64]byte
	size := len(b) - at - 1
	k := binary.PutUvarint(prefix[:], uint64(size))
	if k > 1 {
		b = append(b, prefix[1:k]...)
		copy(b[at+k:], b[at+1:at+1+size])
	}
	copy(b[at:], prefix[:k])
	r.buf = b
	r.n++
	return nil
}

// Len reports the values in the run.
func (r *Run) Len() int { return r.n }

// Payload returns the run as one batch payload. It aliases the run's
// buffer until the next Append or Reset.
func (r *Run) Payload() []byte {
	if len(r.buf) == 0 {
		r.buf = append(r.buf, make([]byte, runHead)...)
	}
	var count [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(count[:], uint64(r.n))
	copy(r.buf[runHead-k:], count[:k])
	return r.buf[runHead-k:]
}

// Reset empties the run, keeping its buffer.
func (r *Run) Reset() { r.buf, r.n = r.buf[:0], 0 }

// UnmarshalBatchInto decodes a batch payload under lim, appending the
// values to dst, so a long-lived read loop recycles one slice. The whole
// payload must be consumed. The decoded values never alias data (the codec
// copies everything it keeps), so the caller may recycle both dst and data
// freely.
func UnmarshalBatchInto(dst []value.V, data []byte, lim Limits) ([]value.V, error) {
	r := Reader{buf: data, lim: lim}
	count, err := r.count()
	if err != nil {
		return dst, fmt.Errorf("wire: batch count: %w", err)
	}
	for i := 0; i < count; i++ {
		elem, err := r.Bytes()
		if err != nil {
			return dst, fmt.Errorf("wire: batch element %d: %w", i, err)
		}
		v, err := UnmarshalLimits(elem, lim)
		if err != nil {
			return dst, fmt.Errorf("wire: batch element %d: %w", i, err)
		}
		dst = append(dst, v)
	}
	if r.pos != len(data) {
		return dst, fmt.Errorf("wire: %d trailing bytes after batch", len(data)-r.pos)
	}
	return dst, nil
}
