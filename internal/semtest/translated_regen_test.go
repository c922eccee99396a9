//go:build regen

package semtest

// translatedLanes is empty under the regen build tag, which leaves the
// committed lane packages out of the test binary: however stale they are,
// TestTranslatedLaneIsFresh -update can rewrite them.
var translatedLanes = map[string]translatedLane{}
