package remote

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
	"time"
)

// The buffered frameReader must be indistinguishable, frame for frame and
// error for error, from exact-length reads — whatever way the transport
// happens to chop the byte stream up. The reference is readFrame's
// nine-byte-header twin below.

// appendMuxFrame appends one multiplexed frame to dst, as a raw peer in
// these tests puts it on the wire.
func appendMuxFrame(dst []byte, typ byte, sid uint32, payload []byte) []byte {
	h := muxHeader(typ, sid, len(payload))
	return append(append(dst, h[:]...), payload...)
}

type decoded struct {
	typ     byte
	sid     uint32
	payload []byte
	err     string
}

// refNext is the unbuffered reference: header, MaxFrame check, payload,
// each an exact-length read.
func refNext(r io.Reader) (byte, uint32, []byte, error) {
	var hdr [muxHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[5:])
	if n > MaxFrame {
		return 0, 0, nil, fmt.Errorf("remote: frame length %d exceeds MaxFrame", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return hdr[0], binary.BigEndian.Uint32(hdr[1:5]), payload, nil
}

// decodeAll runs next until it errors, keeping every frame (payloads
// copied: a frameReader's are views) and the terminal error's text.
func decodeAll(next func() (byte, uint32, []byte, error)) []decoded {
	var out []decoded
	for {
		typ, sid, payload, err := next()
		if err != nil {
			return append(out, decoded{err: err.Error()})
		}
		out = append(out, decoded{typ: typ, sid: sid, payload: append([]byte{}, payload...)})
	}
}

func sameDecode(t testing.TB, what string, got, want []decoded) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d (last got %+v)", what, len(got), len(want), summary(got[len(got)-1]))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.typ != w.typ || g.sid != w.sid || g.err != w.err || !bytes.Equal(g.payload, w.payload) {
			t.Fatalf("%s: result %d is %s, want %s", what, i, summary(g), summary(w))
		}
	}
}

func summary(d decoded) string {
	return fmt.Sprintf("{typ %#x sid %d len %d err %q}", d.typ, d.sid, len(d.payload), d.err)
}

// viaReader decodes data through a frameReader fed by r.
func viaReader(r io.Reader) []decoded {
	fr := newFrameReader(r, 0)
	defer fr.release()
	return decodeAll(fr.readMux)
}

// viaExact decodes data with the exact-length reference.
func viaExact(data []byte) []decoded {
	ref := bytes.NewReader(data)
	return decodeAll(func() (byte, uint32, []byte, error) { return refNext(ref) })
}

// chunkReader hands out data in the given chunk sizes, cycling; a zero
// size reads one byte, so any byte string is a valid chunking.
type chunkReader struct {
	data  []byte
	sizes []byte
	i     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(c.sizes) > 0 {
		n = max(int(c.sizes[c.i%len(c.sizes)]), 1)
		c.i++
	}
	n = copy(p[:min(n, len(p))], c.data)
	c.data = c.data[n:]
	return n, nil
}

// frameSeq is the sequence the issue names: empty payloads, one payload of
// exactly the fill buffer, one a byte over it (the first on the grow
// path), one of MaxFrame, small frames between them so buffered and
// direct reads alternate, and last a header announcing MaxFrame+1.
func frameSeq(withMax bool) []byte {
	pattern := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i*7 + n)
		}
		return p
	}
	var b []byte
	add := func(typ byte, sid uint32, payload []byte) { b = appendMuxFrame(b, typ, sid, payload) }
	add(framePing, 0, nil)
	add(frameValues, 1, pattern(3))
	add(frameEOS, 1, nil)
	add(frameValues, 2, pattern(fillSize))
	add(frameCredit, 3, pattern(2))
	add(frameValues, 4, pattern(fillSize+1))
	add(frameCancel, 5, nil)
	if withMax {
		add(frameOpen, 6, pattern(MaxFrame))
		add(frameCredit, 7, pattern(1))
	}
	add(frameValues, 8, pattern(fillSize-muxHeaderLen)) // header + payload fill the buffer exactly
	for i := 0; i < 300; i++ {
		add(frameCredit, uint32(i), pattern(i%4))
	}
	over := muxHeader(frameValues, 9, MaxFrame+1)
	return append(b, over[:]...)
}

func TestFrameReaderMatchesUnbufferedReads(t *testing.T) {
	seed := time.Now().UnixNano()
	t.Logf("random chunking seed %d", seed)
	t.Run("mux", func(t *testing.T) {
		const hlen = muxHeaderLen
		data := frameSeq(true)
		want := viaExact(data)
		if n := len(want); n < 300 || want[n-1].err == "" || want[n-1].err == io.EOF.Error() {
			t.Fatalf("reference decode ended %s after %d results", summary(want[n-1]), n)
		}

		sameDecode(t, "one Read carrying every frame", viaReader(bytes.NewReader(data)), want)
		sameDecode(t, "HalfReader", viaReader(iotest.HalfReader(bytes.NewReader(data))), want)
		sameDecode(t, "DataErrReader", viaReader(iotest.DataErrReader(bytes.NewReader(data))), want)
		rng := rand.New(rand.NewSource(seed))
		for round := 0; round < 4; round++ {
			sizes := make([]byte, 1+rng.Intn(64))
			rng.Read(sizes)
			sameDecode(t, fmt.Sprintf("random chunking, round %d", round),
				viaReader(&chunkReader{data: data, sizes: sizes}), want)
		}

		// A byte at a time, 32 MiB of payload is 32 M Reads; the same
		// sequence without the MaxFrame frame exercises every boundary.
		small := frameSeq(false)
		sameDecode(t, "OneByteReader", viaReader(iotest.OneByteReader(bytes.NewReader(small))), viaExact(small))

		// A stream cut inside a header, between a header and its payload,
		// and inside a payload ends the way exact-length reads end it.
		for _, cut := range []int{hlen - 2, 2 * hlen, 2*hlen + 1, len(small) - 3} {
			sameDecode(t, fmt.Sprintf("cut at %d", cut),
				viaReader(iotest.HalfReader(bytes.NewReader(small[:cut]))), viaExact(small[:cut]))
		}
	})
}

// TestFrameReaderManyFramesOneRead: hundreds of frames delivered by one
// Read cost one Read — the point of the buffer.
func TestFrameReaderManyFramesOneRead(t *testing.T) {
	var data []byte
	const frames = 500
	for i := 0; i < frames; i++ {
		data = appendMuxFrame(data, frameCredit, uint32(i+1), creditPayload(uint64(i)))
	}
	reads := 0
	fr := newFrameReader(readerFunc(func(p []byte) (int, error) {
		reads++
		if len(data) == 0 {
			return 0, io.EOF
		}
		n := copy(p, data)
		data = data[n:]
		return n, nil
	}), 0)
	defer fr.release()
	for i := 0; i < frames; i++ {
		typ, sid, payload, err := fr.readMux()
		if err != nil || typ != frameCredit || sid != uint32(i+1) {
			t.Fatalf("frame %d: typ %#x sid %d err %v", i, typ, sid, err)
		}
		if n, err := parseCredit(payload); err != nil || n != uint64(i) {
			t.Fatalf("frame %d: credit %d err %v", i, n, err)
		}
	}
	if reads != 1 {
		t.Errorf("%d frames took %d Reads, want 1", frames, reads)
	}
	if _, _, _, err := fr.readMux(); err != io.EOF {
		t.Errorf("after the last frame: %v, want io.EOF", err)
	}
}

type readerFunc func([]byte) (int, error)

func (f readerFunc) Read(p []byte) (int, error) { return f(p) }

// TestFillBuffersComeBack: a reader's fill buffer is out while it lives
// and back in the pool once released.
func TestFillBuffersComeBack(t *testing.T) {
	before := fillOut.Load()
	fr := newFrameReader(bytes.NewReader(nil), 0)
	if got := fillOut.Load(); got != before+1 {
		t.Fatalf("fillOut %d with one live reader, want %d", got, before+1)
	}
	fr.release()
	if got := fillOut.Load(); got != before {
		t.Fatalf("fillOut %d after release, want %d", got, before)
	}
}

// FuzzFrameReader: any bytes under any chunking decode exactly as the
// exact-length reference does.
func FuzzFrameReader(f *testing.F) {
	seq := frameSeq(false)
	f.Add(seq[:200], []byte{1})
	f.Add(seq[len(seq)-400:], []byte{3, 200, 0, 9})
	f.Add(seq[:fillSize+muxHeaderLen+50], []byte{255, 255, 7})
	f.Add([]byte{frameValues, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}, []byte{2})
	f.Add([]byte{frameValues, 0, 0, 0, 1, 0, 0, 0, 0, 0x02, 0x00, 0x00}, []byte{})
	f.Add(seq[:muxHeaderLen-2], []byte{4})                       // cut inside a header
	f.Add(seq[:2*muxHeaderLen+1], []byte{1, 5})                  // cut inside a payload
	f.Add(seq[fillSize:fillSize+3*muxHeaderLen], []byte{0, 128}) // starts mid-frame: garbage headers
	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		sameDecode(t, "fuzz", viaReader(&chunkReader{data: data, sizes: sizes}), viaExact(data))
	})
}
