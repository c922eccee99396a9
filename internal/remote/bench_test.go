package remote

import (
	"net"
	"testing"

	"junicon/internal/value"
	"junicon/internal/wire"
)

// countingConn counts the Reads a frameReader makes on its connection.
type countingConn struct {
	net.Conn
	reads int
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads++
	return c.Conn.Read(p)
}

// BenchmarkSessionDemux is the per-layer benchmark of the receive hop: a
// peer's coalesced flushes — one short stream's traffic each, the
// VALUES (runs of one and of sixteen)/CREDIT/EOS mix a storm puts on a session — pushed through
// a pipe-backed connection into readMux. One op is one frame; reads/frame
// is the coalescing factor (two at the parent commit's unbuffered reader,
// whatever a flush carries here).
func BenchmarkSessionDemux(b *testing.B) {
	ints := func(n int) [][]byte {
		items := make([][]byte, n)
		for i := range items {
			items[i], _ = wire.Marshal(value.NewInt(int64(i)))
		}
		return items
	}
	var flush []byte
	for sid := uint32(1); sid <= 4; sid++ {
		for _, one := range ints(4) {
			flush = appendMuxFrame(flush, frameValues, sid, wire.AppendBatch(nil, [][]byte{one}))
		}
		flush = appendMuxFrame(flush, frameValues, sid, wire.AppendBatch(nil, ints(16)))
		flush = appendMuxFrame(flush, frameCredit, sid, creditPayload(16))
		flush = appendMuxFrame(flush, frameValues, sid, wire.AppendBatch(nil, ints(16)))
		flush = appendMuxFrame(flush, frameEOS, sid, nil)
	}

	client, server := net.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		for {
			if _, err := server.Write(flush); err != nil {
				return
			}
		}
	}()
	conn := &countingConn{Conn: client}
	fr := newFrameReader(conn, DefaultIdleTimeout)
	defer fr.release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := fr.readMux(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
	b.ReportMetric(float64(conn.reads)/float64(b.N), "reads/frame")
}
