package lint

// pipeStop reports pipes created and then abandoned. A Pipe's producer is
// a goroutine (or a pooled task) parked against a bounded queue; it is
// released by Stop, by draining to exhaustion through First, or by handing
// the pipe to someone else who will. A function that creates a pipe, uses
// it only through non-releasing methods (Next, Err, Restart, StartEager)
// and lets the variable die leaks the producer — the dynamic counterpart
// of the analyzer's JV013, enforced on the host side.
//
// The check is syntactic (the leak engine, leak.go): a creation is an
// assignment whose right side calls one of pipeCreators. Any appearance
// of the variable outside method-receiver position (argument, return
// value, composite literal, channel send, assignment to a field) counts as
// an escape and silences the check — whoever received the value owns the
// release. A nil comparison is neither, and a constructor call whose
// result is dropped is always a finding.
var pipeStop = leakCheck("pipestop", "pipe created but never stopped, drained or passed on", leakRule{
	pkg:      "pipe",
	creators: pipeCreators,
	// Releasing methods end the producer; aliasing methods hand the same
	// pipe onward (their result carries the release duty), so both
	// silence the check.
	releasers: map[string]bool{"Stop": true, "First": true, "Drain": true},
	aliasers:  map[string]bool{"OnPool": true, "Out": true, "Stream": true},
	leak:      "pipe %[1]q is never stopped, drained or passed on: its producer goroutine leaks (call %[1]s.Stop, or hand the pipe to its consumer)",
	drop:      "a pipe nobody holds can never be stopped: its producer goroutine leaks",
})

var pipeCreators = map[string]bool{
	"New": true, "FromGen": true, "FromGenBatched": true,
	"NewBatchedWithQueue": true, "NewInline": true, "Chain": true, "Over": true,
}
