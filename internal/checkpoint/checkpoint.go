// Package checkpoint serializes suspended compiled generators into
// versioned, checksummed snapshots and restores them into fresh vm
// Machines that resume mid-iteration — the durability layer under remote
// protocol v6's SNAPSHOT frames and resume-mode OPEN, junicond
// -checkpoint-dir, and the junicon CLI's -snapshot/-resume.
//
// The package owns the envelope; the vm package owns the frame. A
// snapshot is the frame tree vm.Capture writes (PC + resume point + slot
// array + choice-point stack, recursively including live child frames;
// its layout is documented in internal/vm/snapshot.go) beside the Meta
// record, encoded as one wire value tree under strict marshaling: any
// host-resident value in the frame's state — a co-expression or pipe
// handle in a slot, say — refuses at snapshot time (wire.ErrOpaque)
// instead of producing a blob that cannot resume. The refusal discipline
// mirrors internal/compile — conservative, with a reason — and callers
// fall back to restart-from-start (replay) recovery.
//
// Blob layout: "JSNP" magic, one version byte, a big-endian CRC32 (IEEE)
// of the body, then the body — a single wire-encoded value, the list
// [meta, frame]. Truncation, bit flips and forged headers all fail loudly
// on restore (the fuzz tests pin this); a fingerprint recorded per frame
// additionally pins the snapshot to the exact code object it was captured
// against, so a snapshot never resumes on code that lays its slots out
// differently.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"junicon/internal/core"
	"junicon/internal/telemetry"
	"junicon/internal/value"
	"junicon/internal/vm"
	"junicon/internal/wire"
)

// Blob header: 4 magic bytes, 1 version byte, 4 CRC bytes.
const (
	magic      = "JSNP"
	version    = 1
	headerSize = 9
)

// cRestores counts restores performed, including replay-based recoveries
// reported via MarkRestored.
var cRestores = telemetry.NewCounter("checkpoint.restores")

// snapLimits bounds snapshot decoding. Nesting runs ~4 levels of lists
// per call-tower frame, so the depth limit comfortably covers the vm's
// own tower bound while still terminating adversarial blobs.
var snapLimits = wire.Limits{
	MaxBytes: 16 << 20,
	MaxElems: 1 << 20,
	MaxDepth: 2048,
}

// ErrCorrupt reports a blob that failed structural validation: bad magic,
// unknown version, checksum mismatch, truncation, or a malformed value
// tree. Restore never resumes from such a blob.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// Refused reports a generator whose state cannot be snapshotted, with the
// reason. Callers are expected to read it (the junilint snapguard rule
// flags code that discards it) and fall back to replay recovery.
type Refused struct{ Reason string }

func (r *Refused) Error() string { return "checkpoint: refused: " + r.Reason }

// IsRefused distinguishes a refusal (fall back to replay) from a real
// error (corrupt blob, I/O).
func IsRefused(err error) bool {
	var r *Refused
	return errors.As(err, &r)
}

func refusal(reason string) error { return &Refused{Reason: reason} }

// MarkRestored counts a recovery that resumed a stream without a blob —
// the deterministic-replay fallback. Snapshot-based restores count
// automatically inside Restore; replay recoveries share the same counter
// so `checkpoint.restores` reflects every stream that survived a crash.
func MarkRestored() {
	if telemetry.On() {
		cRestores.Inc()
	}
}

// Meta travels with every snapshot: enough context to rebuild the
// evaluation environment (program + expression, or a registered name) and
// the delivered-value count the snapshot corresponds to.
type Meta struct {
	// Program holds source declarations to load before restoring ("" when
	// the expression is self-contained).
	Program string
	// Expr is the generator expression the frame compiles from ("" for
	// named generators, which cannot restore from a blob).
	Expr string
	// Name is the registered-generator name, informational.
	Name string
	// Args is the argument vector the stream was opened with.
	Args []value.V
	// Produced counts values delivered before this snapshot was taken:
	// resuming from it continues with value Produced+1.
	Produced uint64
}

// Snapshot captures a suspended generator into a blob. Only compiled vm
// frames snapshot; anything else — tree-walk generators, kernel
// combinators, pipes — refuses (*Refused), as does a frame that is
// mid-Next, holds live host generators, or references host-resident
// values (wire.ErrOpaque under strict marshaling).
func Snapshot(g core.Gen, meta Meta) ([]byte, error) {
	fr, ok := g.(*vm.Frame)
	if !ok {
		return nil, refusal(fmt.Sprintf("not a compiled vm frame (%T)", g))
	}
	frame, err := vm.Capture(fr)
	if err != nil {
		var u *vm.Unsnapshotable
		if errors.As(err, &u) {
			return nil, refusal(u.Reason)
		}
		return nil, err
	}
	tree := value.NewList(metaTree(meta), frame)
	body, err := wire.MarshalStrict(tree, snapLimits)
	if err != nil {
		if errors.Is(err, wire.ErrOpaque) {
			return nil, refusal("frame holds a host-resident value: " + err.Error())
		}
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	blob := make([]byte, headerSize, headerSize+len(body))
	copy(blob, magic)
	blob[4] = version
	binary.BigEndian.PutUint32(blob[5:9], crc32.ChecksumIEEE(body))
	return append(blob, body...), nil
}

// Peek decodes a blob's metadata without restoring it — what a server
// needs to rebuild the evaluation environment before Restore, and what
// the CLI prints for a snapshot file.
func Peek(data []byte) (*Meta, error) {
	meta, _, err := decodeBlob(data)
	return meta, err
}

// Restore validates a blob and rehydrates its frame against root (the
// Machine compiled from the same expression — fingerprints must match).
// resolve maps child-frame unit names to their Machines; nil is fine for
// snapshots with no live call tower.
func Restore(data []byte, root *vm.Machine, resolve func(name string) (*vm.Machine, bool)) (*vm.Frame, *Meta, error) {
	meta, frame, err := decodeBlob(data)
	if err != nil {
		return nil, nil, err
	}
	fr, err := root.Rehydrate(frame, resolve)
	var shape *wire.ShapeError
	if errors.As(err, &shape) {
		return nil, nil, corrupt("%s", shape.Msg)
	}
	if err != nil {
		return nil, nil, err
	}
	if telemetry.On() {
		cRestores.Inc()
	}
	return fr, meta, nil
}

// ---- encoding ----

func metaTree(m Meta) value.V {
	return value.NewList(
		value.String(m.Program),
		value.String(m.Expr),
		value.String(m.Name),
		value.NewList(m.Args...),
		value.NewInt(int64(m.Produced)),
	)
}

// ---- decoding ----

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// decodeBlob checks the envelope and reads the metadata, returning the
// frame tree for vm's Rehydrate to read.
func decodeBlob(data []byte) (*Meta, value.V, error) {
	if len(data) < headerSize || string(data[:4]) != magic {
		return nil, nil, corrupt("bad magic")
	}
	if data[4] != version {
		return nil, nil, corrupt("unknown snapshot version %d (want %d)", data[4], version)
	}
	body := data[headerSize:]
	if got, want := crc32.ChecksumIEEE(body), binary.BigEndian.Uint32(data[5:9]); got != want {
		return nil, nil, corrupt("checksum mismatch (%#x, header says %#x)", got, want)
	}
	v, err := wire.UnmarshalLimits(body, snapLimits)
	if err != nil {
		return nil, nil, corrupt("body: %v", err)
	}
	r := &wire.Fields{}
	top := r.List(v, 2, "snapshot")
	f := r.List(top[0], 5, "meta")
	m := &Meta{
		Program: r.String(f[0], "meta program"),
		Expr:    r.String(f[1], "meta expr"),
		Name:    r.String(f[2], "meta name"),
		Args:    r.List(f[3], -1, "meta args"),
	}
	if produced := r.Int(f[4], "meta produced"); produced < 0 {
		r.Fail("meta produced is negative")
	} else {
		m.Produced = uint64(produced)
	}
	if r.Err != nil {
		return nil, nil, corrupt("%s", r.Err)
	}
	return m, top[1], nil
}
