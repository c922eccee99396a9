package lint

// inspectLeak reports observation records opened and then abandoned. An
// inspect.Open record sits in the live registry until Close retires it; a
// record whose variable dies unclosed stays in /debug/streams forever as a
// phantom "running" stream — a leak not of a goroutine but of
// observability itself, polluting every later topology snapshot and giving
// the stall watchdog a permanently idle stream to mis-diagnose — and never
// emits its stream-end.
//
// The check is pipestop's, over another row of the leak engine (leak.go):
// a creation is an assignment whose right side calls inspect.Open; release
// is h.Close() in receiver position. Any other appearance of the variable
// (argument, return, field store) is an escape and silences the check —
// whoever received the record owns its closing. Nil comparisons (`if h !=
// nil`) are neutral: they are the idiomatic test of a record opened while
// every sink was off, not a transfer of ownership. An Open call whose
// result is discarded is always a finding — a record nobody holds can
// never be closed.
var inspectLeak = leakCheck("inspectleak", "observation record opened but never closed or passed on", leakRule{
	pkg:       "inspect",
	creators:  map[string]bool{"Open": true},
	releasers: map[string]bool{"Close": true},
	leak:      "record %[1]q is never closed or passed on: it stays in the live stream registry forever (call %[1]s.Close)",
	drop:      "a record nobody holds can never be closed",
})
