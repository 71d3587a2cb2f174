package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: ms(0), end: ms(100)},
		// Two children overlapping on 20..30: the union is 10..50.
		{name: "a", parent: 0, start: ms(10), end: ms(30)},
		{name: "b", parent: 0, start: ms(20), end: ms(50)},
		// Contained in b: covered already, subtracts nothing more.
		{name: "c", parent: 0, start: ms(25), end: ms(28)},
		// Runs past the root's end: clipped to 90..100.
		{name: "d", parent: 0, start: ms(90), end: ms(120)},
		// A grandchild is subtracted from its own parent only.
		{name: "b1", parent: 2, start: ms(30), end: ms(40)},
		{name: "lone", parent: -1, start: ms(0), end: ms(7)},
	}
	want := []time.Duration{ms(50), ms(20), ms(20), ms(3), ms(30), ms(10), ms(7)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	h := tr.begin("x", 1, -1)
	tr.end(h)
	tr.add("y", 1, h, time.Now(), time.Now())
	if h != -1 || tr.snapshot() != nil {
		t.Fatalf("nil tracer recorded something")
	}
}

func TestTracerParentsAndChrome(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op.job", 7, -1)
	child := tr.begin("Client.Submit", 7, root)
	tr.end(child)
	open := tr.begin("never.closed", 7, root)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 3 || spans[1].parent != root || spans[open].end != spans[open].start {
		t.Fatalf("spans = %+v", spans)
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Tid  int64
			Ts   float64
			Dur  float64
			Args map[string]float64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(doc.TraceEvents))
	}
	e := doc.TraceEvents[1]
	if e.Name != "Client.Submit" || e.Ph != "X" || e.Tid != 7 || e.Args["parent"] != 0 || e.Dur < 0 {
		t.Errorf("event = %+v", e)
	}
}

func TestJobOf(t *testing.T) {
	for path, want := range map[string]string{
		".bench_build/state-1/state/jobs/j000042/status.json": "j000042",
		"/x/jobs/j000001":           "j000001",
		"/x/state/tmp-spec.json":    "",
		"/x/jobs/j000003/ckpt.snap": "j000003",
	} {
		if got := jobOf(path); got != want {
			t.Errorf("jobOf(%q) = %q, want %q", path, got, want)
		}
	}
}
