package semtest

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"junicon/internal/remote"
)

// Muxed evaluates the case as a source stream opened through a session
// Dialer — the multiplexed transport, where this stream shares one TCP
// connection with whatever else the dialer has open. The consumer side
// injects pauses from a deterministically seeded schedule, forcing the
// interleavings the shared demux must survive: a slow consumer whose
// queue backpressures its stream while session siblings keep streaming,
// credit grants racing the shared writer's flush coalescing, and EOS
// landing while the consumer is parked. The trace must still be the
// sequential reference's, value for value — multiplexing is a transport
// economy, never a semantics change.
func Muxed(c Case, d *remote.Dialer, addr string, cfg remote.Config, seed int64) (Result, error) {
	p := d.OpenSource(addr, c.Program, c.Expr, nil, cfg)
	rng := rand.New(rand.NewSource(seed))
	// Seeded consumer pacing: mostly full speed, sometimes a yield,
	// occasionally a real stall — enough to swing the credit window
	// between empty and full across the run.
	r := drainPipe(p, c.max(), func(int) {
		switch n := rng.Intn(8); {
		case n < 4:
		case n < 7:
			runtime.Gosched()
		default:
			time.Sleep(50 * time.Microsecond)
		}
	})
	if err := refused(p.Err(), r); err != nil {
		return Result{}, fmt.Errorf("%s: %w", c.Name, err)
	}
	return r, nil
}
