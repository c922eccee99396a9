// Package checkpoint serializes suspended compiled generators into
// versioned, checksummed snapshots and restores them into fresh vm
// Machines that resume mid-iteration — the durability layer under remote
// protocol v4's SNAPSHOT/RESUME frames, junicond -checkpoint-dir, and the
// junicon CLI's -snapshot/-resume.
//
// A snapshot is the vm package's FrameSnap (PC + resume point + slot array
// + choice-point stack, recursively including live child frames) encoded
// as one wire value tree under strict marshaling: any host-resident value
// in the frame's state — a co-expression or pipe handle in a slot, say —
// refuses at snapshot time (wire.ErrOpaque) instead of producing a blob
// that cannot resume. The refusal discipline mirrors
// internal/compile — conservative, with a reason — and callers fall back
// to restart-from-start (replay) recovery.
//
// Blob layout: "JSNP" magic, one version byte, a big-endian CRC32 (IEEE)
// of the body, then the body — a single wire-encoded value. Truncation,
// bit flips and forged headers all fail loudly on restore (the fuzz tests
// pin this); a fingerprint recorded per frame additionally pins the
// snapshot to the exact code object it was captured against, so a
// snapshot never resumes on code that lays its slots out differently.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

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
	fs, err := vm.Capture(fr)
	if err != nil {
		var u *vm.Unsnapshotable
		if errors.As(err, &u) {
			return nil, refusal(u.Reason)
		}
		return nil, err
	}
	tree := value.NewList(metaTree(meta), frameTree(fs))
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
	meta, ftree, err := decodeBlob(data)
	if err != nil {
		return nil, nil, err
	}
	fs, err := decodeFrame(ftree, 0)
	if err != nil {
		return nil, nil, err
	}
	fr, err := root.Rehydrate(fs, resolve)
	if err != nil {
		return nil, nil, err
	}
	if telemetry.On() {
		cRestores.Inc()
	}
	return fr, meta, nil
}

// ---- encoding ----

func bval(b bool) value.V {
	if b {
		return value.NewInt(1)
	}
	return value.NewInt(0)
}

func metaTree(m Meta) value.V {
	return value.NewList(
		value.String(m.Program),
		value.String(m.Expr),
		value.String(m.Name),
		value.NewList(m.Args...),
		value.NewInt(int64(m.Produced)),
	)
}

func frameTree(s *vm.FrameSnap) value.V {
	choices := value.NewList()
	for _, c := range s.Choices {
		choices.Put(value.NewList(value.NewInt(int64(c.PC)), value.NewInt(int64(c.SP))))
	}
	aux := value.NewList()
	for i := range s.Aux {
		a := &s.Aux[i]
		var payload value.V = value.NullV
		switch a.Kind {
		case vm.AuxBang:
			payload = a.V0
		case vm.AuxChild:
			payload = frameTree(a.Child)
		case vm.AuxUndo:
			payload = value.NewList(a.V0, a.V1)
		case vm.AuxScan:
			payload = value.NewList(a.V0, a.V1, value.NewInt(int64(a.Outer)))
		}
		aux.Put(value.NewList(
			value.NewInt(int64(a.Barrier)),
			value.NewInt(int64(a.Count)),
			value.NewInt(int64(a.N)),
			bval(a.Flag),
			value.NewInt(int64(a.Mode)),
			value.NewInt(a.I0),
			value.NewInt(a.I1),
			value.NewInt(a.I2),
			value.NewInt(int64(a.Kind)),
			payload,
		))
	}
	globals := value.NewList()
	for _, g := range s.Globals {
		globals.Put(value.NewList(value.String(g.Name), g.Val))
	}
	return value.NewList(
		value.String(s.Name),
		value.NewInt(int64(s.Fingerprint)),
		value.NewInt(int64(s.PC)),
		bval(s.Started),
		bval(s.Resumed),
		value.NewList(s.Args...),
		value.NewList(s.Slots...),
		value.NewList(s.Stack...),
		choices,
		aux,
		globals,
	)
}

// ---- decoding ----

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

func decodeBlob(data []byte) (*Meta, *value.List, error) {
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
	top, err := asList(v, 2, "snapshot")
	if err != nil {
		return nil, nil, err
	}
	meta, err := decodeMeta(top[0])
	if err != nil {
		return nil, nil, err
	}
	ftree, err := asList(top[1], 11, "frame")
	if err != nil {
		return nil, nil, err
	}
	return meta, value.NewList(ftree...), nil
}

func asList(v value.V, arity int, what string) ([]value.V, error) {
	l, ok := value.Deref(v).(*value.List)
	if !ok {
		return nil, corrupt("%s is %s, want list", what, value.TypeOf(v))
	}
	elems := l.Elems()
	if arity > 0 && len(elems) != arity {
		return nil, corrupt("%s has %d fields, want %d", what, len(elems), arity)
	}
	return elems, nil
}

func asInt(v value.V, what string) (int64, error) {
	i, ok := value.ToInteger(value.Deref(v))
	if !ok {
		return 0, corrupt("%s is %s, want integer", what, value.TypeOf(v))
	}
	n, ok := i.Int64()
	if !ok {
		return 0, corrupt("%s out of range", what)
	}
	return n, nil
}

func asString(v value.V, what string) (string, error) {
	s, ok := value.Deref(v).(value.String)
	if !ok {
		return "", corrupt("%s is %s, want string", what, value.TypeOf(v))
	}
	return string(s), nil
}

func asInt32(v value.V, what string) (int32, error) {
	n, err := asInt(v, what)
	if err != nil {
		return 0, err
	}
	if n < math.MinInt32 || n > math.MaxInt32 {
		return 0, corrupt("%s out of int32 range", what)
	}
	return int32(n), nil
}

func decodeMeta(v value.V) (*Meta, error) {
	f, err := asList(v, 5, "meta")
	if err != nil {
		return nil, err
	}
	m := &Meta{}
	if m.Program, err = asString(f[0], "meta program"); err != nil {
		return nil, err
	}
	if m.Expr, err = asString(f[1], "meta expr"); err != nil {
		return nil, err
	}
	if m.Name, err = asString(f[2], "meta name"); err != nil {
		return nil, err
	}
	args, err := asList(f[3], -1, "meta args")
	if err != nil {
		return nil, err
	}
	m.Args = args
	produced, err := asInt(f[4], "meta produced")
	if err != nil {
		return nil, err
	}
	if produced < 0 {
		return nil, corrupt("meta produced is negative")
	}
	m.Produced = uint64(produced)
	return m, nil
}

func decodeFrame(v value.V, depth int) (*vm.FrameSnap, error) {
	if depth > 128 {
		return nil, corrupt("call tower too deep")
	}
	f, err := asList(v, 11, "frame")
	if err != nil {
		return nil, err
	}
	s := &vm.FrameSnap{}
	if s.Name, err = asString(f[0], "frame name"); err != nil {
		return nil, err
	}
	fp, err := asInt(f[1], "frame fingerprint")
	if err != nil {
		return nil, err
	}
	s.Fingerprint = uint64(fp)
	if s.PC, err = asInt32(f[2], "frame pc"); err != nil {
		return nil, err
	}
	started, err := asInt(f[3], "frame started")
	if err != nil {
		return nil, err
	}
	s.Started = started != 0
	resumed, err := asInt(f[4], "frame resumed")
	if err != nil {
		return nil, err
	}
	s.Resumed = resumed != 0
	if s.Args, err = asList(f[5], -1, "frame args"); err != nil {
		return nil, err
	}
	if s.Slots, err = asList(f[6], -1, "frame slots"); err != nil {
		return nil, err
	}
	if s.Stack, err = asList(f[7], -1, "frame stack"); err != nil {
		return nil, err
	}
	choices, err := asList(f[8], -1, "frame choices")
	if err != nil {
		return nil, err
	}
	for _, cv := range choices {
		pair, err := asList(cv, 2, "choice point")
		if err != nil {
			return nil, err
		}
		var c vm.ChoiceSnap
		if c.PC, err = asInt32(pair[0], "choice pc"); err != nil {
			return nil, err
		}
		if c.SP, err = asInt32(pair[1], "choice sp"); err != nil {
			return nil, err
		}
		s.Choices = append(s.Choices, c)
	}
	auxes, err := asList(f[9], -1, "frame aux")
	if err != nil {
		return nil, err
	}
	for _, av := range auxes {
		fields, err := asList(av, 10, "aux cell")
		if err != nil {
			return nil, err
		}
		var a vm.AuxSnap
		if a.Barrier, err = asInt32(fields[0], "aux barrier"); err != nil {
			return nil, err
		}
		if a.Count, err = asInt32(fields[1], "aux count"); err != nil {
			return nil, err
		}
		if a.N, err = asInt32(fields[2], "aux n"); err != nil {
			return nil, err
		}
		flag, err := asInt(fields[3], "aux flag")
		if err != nil {
			return nil, err
		}
		a.Flag = flag != 0
		mode, err := asInt(fields[4], "aux mode")
		if err != nil {
			return nil, err
		}
		if mode < -128 || mode > 127 {
			return nil, corrupt("aux mode out of range")
		}
		a.Mode = int8(mode)
		if a.I0, err = asInt(fields[5], "aux i0"); err != nil {
			return nil, err
		}
		if a.I1, err = asInt(fields[6], "aux i1"); err != nil {
			return nil, err
		}
		if a.I2, err = asInt(fields[7], "aux i2"); err != nil {
			return nil, err
		}
		kind, err := asInt(fields[8], "aux kind")
		if err != nil {
			return nil, err
		}
		switch kind {
		case vm.AuxCold:
		case vm.AuxBang:
			a.Kind = vm.AuxBang
			a.V0 = value.Deref(fields[9])
		case vm.AuxChild:
			a.Kind = vm.AuxChild
			if a.Child, err = decodeFrame(fields[9], depth+1); err != nil {
				return nil, err
			}
		case vm.AuxUndo:
			a.Kind = vm.AuxUndo
			saved, err := asList(fields[9], 2, "undo record")
			if err != nil {
				return nil, err
			}
			a.V0, a.V1 = saved[0], saved[1]
		case vm.AuxScan:
			a.Kind = vm.AuxScan
			env, err := asList(fields[9], 3, "scanning environment")
			if err != nil {
				return nil, err
			}
			a.V0, a.V1 = env[0], env[1]
			if a.Outer, err = asInt32(env[2], "scanning environment outer"); err != nil {
				return nil, err
			}
		default:
			return nil, corrupt("aux kind %d unknown", kind)
		}
		s.Aux = append(s.Aux, a)
	}
	gl, err := asList(f[10], -1, "frame globals")
	if err != nil {
		return nil, err
	}
	for _, gv := range gl {
		pair, err := asList(gv, 2, "global cell")
		if err != nil {
			return nil, err
		}
		name, err := asString(pair[0], "global name")
		if err != nil {
			return nil, err
		}
		s.Globals = append(s.Globals, vm.GlobalSnap{Name: name, Val: value.Deref(pair[1])})
	}
	return s, nil
}
