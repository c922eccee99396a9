package queue

import (
	"math/rand"
	"sync"
	"testing"
)

// Batch-API tests. The contract under test (queue.go): PutBatch delivers
// the whole run or blocks, returning a partial count only at Close, with
// the partially delivered prefix remaining takeable; TakeBatch blocks for
// at least one element, then fills dst without further blocking.

func TestBatchFIFOSingleThreaded(t *testing.T) {
	for name, mk := range implementations() {
		if name == "mvar" || name == "array-1" {
			continue // no room to buffer a run
		}
		q := mk()
		vs := []int{1, 2, 3, 4}
		if q.Cap() == 0 {
			// Unbounded: a run the initial ring cannot hold, so the one
			// PutBatch has to grow it to fit.
			vs = make([]int, 3*minRing)
			for i := range vs {
				vs[i] = i + 1
			}
		}
		if n, err := q.PutBatch(vs); n != len(vs) || err != nil {
			t.Fatalf("%s: PutBatch = %d %v", name, n, err)
		}
		dst := make([]int, 2*len(vs))
		n, err := q.TakeBatch(dst)
		if err != nil || n != len(vs) {
			t.Fatalf("%s: TakeBatch = %d %v", name, n, err)
		}
		for i := 0; i < n; i++ {
			if dst[i] != i+1 {
				t.Fatalf("%s: dst[%d] = %d, want %d", name, i, dst[i], i+1)
			}
		}
	}
}

func TestTakeBatchDrainsAfterClose(t *testing.T) {
	for name, mk := range implementations() {
		q := mk()
		// Buffer what fits, up to three: one for an M-var.
		held := 0
		for ; held < 3; held++ {
			if ok, err := q.TryPut(held + 1); !ok || err != nil {
				break
			}
		}
		q.Close()
		dst := make([]int, 8)
		if n, err := q.TakeBatch(dst); err != nil || n != held {
			t.Fatalf("%s: TakeBatch after close = %d %v, want %d <nil>", name, n, err, held)
		}
		if _, err := q.TakeBatch(dst); err != ErrClosed {
			t.Fatalf("%s: drained TakeBatch err = %v, want ErrClosed", name, err)
		}
	}
}

// TestConcurrentBatchStress hammers every implementation with concurrent
// PutBatch/TakeBatch under -race: values tagged (producer, seq) must arrive
// exactly once, and each producer's values must appear in sequence order
// within every consumer's local take stream (MPMC FIFO preserves each
// producer's relative order regardless of which consumer observes it).
func TestConcurrentBatchStress(t *testing.T) {
	const producers, consumers, perProducer = 4, 4, 2000
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(p)))
					seq := 0
					for seq < perProducer {
						run := 1 + rng.Intn(37)
						if run > perProducer-seq {
							run = perProducer - seq
						}
						vs := make([]int, run)
						for i := range vs {
							vs[i] = p*perProducer + seq + i
						}
						n, err := q.PutBatch(vs)
						if err != nil {
							t.Errorf("%s: producer %d: PutBatch err %v", name, p, err)
							return
						}
						seq += n
					}
				}(p)
			}
			results := make(chan []int, consumers)
			for c := 0; c < consumers; c++ {
				go func() {
					var local []int
					dst := make([]int, 29)
					for {
						n, err := q.TakeBatch(dst)
						local = append(local, dst[:n]...)
						if err != nil {
							results <- local
							return
						}
					}
				}()
			}
			wg.Wait()
			q.Close()
			seen := make(map[int]bool, producers*perProducer)
			for c := 0; c < consumers; c++ {
				local := <-results
				last := make([]int, producers)
				for i := range last {
					last[i] = -1
				}
				for _, v := range local {
					if seen[v] {
						t.Fatalf("%s: value %d delivered twice", name, v)
					}
					seen[v] = true
					p, s := v/perProducer, v%perProducer
					if s <= last[p] {
						t.Fatalf("%s: producer %d order violated: %d after %d", name, p, s, last[p])
					}
					last[p] = s
				}
			}
			if len(seen) != producers*perProducer {
				t.Fatalf("%s: delivered %d values, want %d", name, len(seen), producers*perProducer)
			}
		})
	}
}

// TestPutBatchPartialDeliveryAtClose closes the queue under a blocked
// PutBatch and checks the contract's partial-delivery clause: the producer
// learns exactly how many elements landed, and precisely that prefix — no
// more, no fewer — is drained by the consumer.
func TestPutBatchPartialDeliveryAtClose(t *testing.T) {
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			q := mk()
			const run = 50
			vs := make([]int, run)
			for i := range vs {
				vs[i] = i + 1
			}
			type res struct {
				n   int
				err error
			}
			done := make(chan res, 1)
			go func() {
				n, err := q.PutBatch(vs)
				done <- res{n, err}
			}()
			// Take a few values, then close mid-run.
			got := make([]int, 0, run)
			dst := make([]int, 3)
			for len(got) < 7 {
				n, err := q.TakeBatch(dst)
				if err != nil {
					t.Fatalf("TakeBatch: %v", err)
				}
				got = append(got, dst[:n]...)
			}
			q.Close()
			r := <-done
			// Unbounded queues absorb the whole run without blocking and so
			// may complete before the close; everything else must report the
			// cut via ErrClosed.
			if r.err == nil && r.n != run {
				t.Fatalf("PutBatch = %d <nil>, want full run %d", r.n, run)
			}
			if r.err != nil && r.err != ErrClosed {
				t.Fatalf("PutBatch err = %v, want ErrClosed", r.err)
			}
			// Drain whatever the close left behind.
			for {
				n, err := q.TakeBatch(dst)
				got = append(got, dst[:n]...)
				if err != nil {
					break
				}
			}
			if len(got) != r.n {
				t.Fatalf("producer reported %d delivered, consumer saw %d", r.n, len(got))
			}
			for i, v := range got {
				if v != i+1 {
					t.Fatalf("delivered[%d] = %d, want %d (prefix property violated)", i, v, i+1)
				}
			}
		})
	}
}

// TestConcurrentBatchCloseStress races PutBatch, TakeBatch and Close on
// every implementation: whatever interleaving occurs, each producer's
// reported delivery count must equal what consumers actually received,
// and nothing may be duplicated.
func TestConcurrentBatchCloseStress(t *testing.T) {
	const producers, consumers = 3, 3
	for name, mk := range implementations() {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 20; round++ {
				q := mk()
				var wg sync.WaitGroup
				delivered := make(chan int, producers)
				for p := 0; p < producers; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						sent := 0
						for b := 0; b < 10; b++ {
							vs := make([]int, 11)
							for i := range vs {
								vs[i] = p<<20 | sent + i
							}
							n, err := q.PutBatch(vs)
							sent += n
							if err != nil {
								break
							}
						}
						delivered <- sent
					}(p)
				}
				received := make(chan int, consumers)
				for c := 0; c < consumers; c++ {
					go func() {
						count := 0
						dst := make([]int, 7)
						for {
							n, err := q.TakeBatch(dst)
							count += n
							if err != nil {
								received <- count
								return
							}
						}
					}()
				}
				// Close at an arbitrary point mid-traffic.
				if round%2 == 0 {
					q.Close()
				}
				wg.Wait()
				q.Close()
				sent, got := 0, 0
				for p := 0; p < producers; p++ {
					sent += <-delivered
				}
				for c := 0; c < consumers; c++ {
					got += <-received
				}
				if sent != got {
					t.Fatalf("%s round %d: producers delivered %d, consumers received %d", name, round, sent, got)
				}
			}
		})
	}
}
