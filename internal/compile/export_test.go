package compile

// RandomProc exposes the random procedure writer to the external tests.
var RandomProc = randomProc
