package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// sseEvent is one dispatched server-sent event.
type sseEvent struct {
	ID    string
	Event string
	Data  string
}

// sseReader parses a text/event-stream body: "id", "event" and "data"
// fields accumulate until a blank line dispatches the event, several
// data lines join with newlines, and comment lines (": ping") and
// unknown fields are skipped.
type sseReader struct {
	br *bufio.Reader
}

func newSSEReader(r io.Reader) *sseReader { return &sseReader{br: bufio.NewReader(r)} }

// next returns the next complete event, or io.EOF once the stream ends.
// A stream cut inside an event returns io.ErrUnexpectedEOF.
func (r *sseReader) next() (sseEvent, error) {
	var ev sseEvent
	var data []string
	started := false
	for {
		line, err := r.br.ReadString('\n')
		if err != nil {
			if err == io.EOF && (started || line != "") {
				return sseEvent{}, io.ErrUnexpectedEOF
			}
			return sseEvent{}, err
		}
		line = strings.TrimSuffix(strings.TrimSuffix(line, "\n"), "\r")
		if line == "" {
			if !started {
				continue
			}
			ev.Data = strings.Join(data, "\n")
			return ev, nil
		}
		if strings.HasPrefix(line, ":") {
			continue
		}
		field, value, _ := strings.Cut(line, ":")
		value = strings.TrimPrefix(value, " ")
		switch field {
		case "id":
			ev.ID = value
		case "event":
			ev.Event = value
		case "data":
			data = append(data, value)
		default:
			continue
		}
		started = true
	}
}

// terminalStatus reports whether ev is a job's terminal status event and,
// if so, the final status ("done", "failed" or "cancelled").
func terminalStatus(ev sseEvent) (status string, terminal bool, err error) {
	if ev.Event != "status" {
		return "", false, nil
	}
	var body struct {
		Status   string `json:"status"`
		Terminal bool   `json:"terminal"`
	}
	if err := json.Unmarshal([]byte(ev.Data), &body); err != nil {
		return "", false, fmt.Errorf("status event %s: %w", ev.ID, err)
	}
	return body.Status, body.Terminal, nil
}
