package inspect

// Lookups reports how many goroutine-ID lookups — stack parses — have run.
func Lookups() int64 { return lookups.Load() }
