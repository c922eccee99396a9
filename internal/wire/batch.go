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
