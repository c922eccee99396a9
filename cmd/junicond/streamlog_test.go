package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"junicon/internal/core"
	"junicon/internal/inspect"
	"junicon/internal/remote"
	"junicon/internal/value"
)

// TestStreamLogLinesArePinned: under -log-json a served stream logs one
// "stream open" line and one "stream done" line, and an operator's log
// pipeline reads every key of them. This pins both lines byte for byte but
// for the two values that differ run to run, time and dur (whose presence
// and integer form are pinned instead).
func TestStreamLogLinesArePinned(t *testing.T) {
	if !inspect.Enable() {
		defer inspect.Disable()
	}
	var sink bytes.Buffer // written by the combining writer's one goroutine only
	logger, flush := newLogger(&sink, false, true)
	srv := remote.NewServer()
	srv.Log = logger
	srv.Register("range", func(args []value.V) (core.Gen, error) {
		return core.IntRange(int64(value.MustInt(args[0])), int64(value.MustInt(args[1]))), nil
	})
	bound, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := remote.Open(bound.String(), "range", []value.V{value.NewInt(1), value.NewInt(3)}, remote.Config{Buffer: 8})
	n := 0
	for _, ok := p.Next(); ok; _, ok = p.Next() {
		n++
	}
	if n != 3 || p.Err() != nil {
		t.Fatalf("drained %d values (err %v), want 3", n, p.Err())
	}
	p.Stop()
	srv.Close() // the session has ended, so its producer has logged its last line
	flush()

	var stream string
	for _, s := range inspect.Snapshot() {
		if s.Kind == inspect.KindRemoteServer {
			stream = s.ID
		}
	}
	lines := map[string]string{}
	msg := regexp.MustCompile(`"msg":"([^"]*)"`)
	for _, line := range strings.Split(strings.TrimSpace(sink.String()), "\n") {
		if m := msg.FindStringSubmatch(line); m != nil {
			lines[m[1]] = line
		}
	}
	peer := regexp.MustCompile(`"remote":"(127\.0\.0\.1:[0-9]+)"`).FindStringSubmatch(lines["session open"])
	if stream == "" || peer == nil {
		t.Fatalf("no served stream record (%q) or session open line:\n%s", stream, sink.String())
	}
	clock := regexp.MustCompile(`^\{"time":"[^"]+",`)
	dur := regexp.MustCompile(`,"dur":[0-9]+\}$`)
	for _, c := range []struct{ msg, want string }{
		{"stream open", fmt.Sprintf(`{"time":T,"level":"INFO","msg":"stream open","remote":%q,"generator":"range","stream":%q,"credit":8}`, peer[1], stream)},
		{"stream done", fmt.Sprintf(`{"time":T,"level":"INFO","msg":"stream done","remote":%q,"generator":"range","stream":%q,"values":3,"reason":"eos","dur":D}`, peer[1], stream)},
	} {
		got := dur.ReplaceAllString(clock.ReplaceAllString(lines[c.msg], `{"time":T,`), `,"dur":D}`)
		if got != c.want {
			t.Errorf("%s line:\n got  %s\n want %s", c.msg, lines[c.msg], c.want)
		}
	}
}
