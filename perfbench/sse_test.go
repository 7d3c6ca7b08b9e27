package main

import (
	"errors"
	"io"
	"strings"
	"testing"
)

func TestSSEReaderFollowsToTerminalEvent(t *testing.T) {
	stream := ": ping\n\n" +
		"id: 1\nevent: status\ndata: {\"seq\":1,\"type\":\"status\",\"status\":\"running\"}\n\n" +
		"id: 2\r\nevent: curve_point\r\ndata: {\"seq\":2}\r\n\r\n" +
		"id: 3\nevent: rung\nretry: 10\ndata: {\"a\":\ndata: 1}\n\n" +
		"id: 4\nevent: status\ndata: {\"seq\":4,\"status\":\"done\",\"terminal\":true}\n\n"
	r := newSSEReader(strings.NewReader(stream))
	var got []sseEvent
	for {
		ev, err := r.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d events, want 4: %+v", len(got), got)
	}
	if got[1].ID != "2" || got[1].Event != "curve_point" || got[1].Data != `{"seq":2}` {
		t.Errorf("CRLF event parsed as %+v", got[1])
	}
	if got[2].Data != "{\"a\":\n1}" {
		t.Errorf("multi-line data = %q", got[2].Data)
	}
	for i, ev := range got {
		status, terminal, err := terminalStatus(ev)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if wantTerminal := i == 3; terminal != wantTerminal {
			t.Errorf("event %d: terminal = %v", i, terminal)
		}
		if i == 3 && status != "done" {
			t.Errorf("terminal status = %q, want done", status)
		}
	}
}

func TestSSEReaderReportsCutStream(t *testing.T) {
	r := newSSEReader(strings.NewReader("id: 1\nevent: status\ndata: {\"terminal\":"))
	if _, err := r.next(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("cut stream: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestTerminalStatusRejectsBadJSON(t *testing.T) {
	if _, _, err := terminalStatus(sseEvent{ID: "9", Event: "status", Data: "{"}); err == nil {
		t.Fatal("malformed status event accepted")
	}
	if _, terminal, err := terminalStatus(sseEvent{Event: "curve_point", Data: "{"}); err != nil || terminal {
		t.Fatalf("non-status event: terminal %v, err %v", terminal, err)
	}
}
