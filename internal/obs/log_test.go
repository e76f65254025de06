package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestNewLoggerText(t *testing.T) {
	var buf strings.Builder
	lg, err := NewLogger(&buf, LogText, slog.LevelInfo)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("collecting", "platform", "odroid-xu3", "jobs", 180)
	out := buf.String()
	if !strings.Contains(out, "msg=collecting") || !strings.Contains(out, "platform=odroid-xu3") {
		t.Fatalf("text output missing fields: %q", out)
	}

	buf.Reset()
	lg.Debug("hidden")
	if buf.Len() != 0 {
		t.Fatalf("debug logged at info level: %q", buf.String())
	}
}

func TestNewLoggerJSON(t *testing.T) {
	var buf strings.Builder
	lg, err := NewLogger(&buf, LogJSON, slog.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("run done", "key", "dhrystone/a15@1000MHz")
	var rec map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &rec); err != nil {
		t.Fatalf("JSON log line does not parse: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "run done" || rec["key"] != "dhrystone/a15@1000MHz" {
		t.Fatalf("unexpected record: %v", rec)
	}
}

func TestNewLoggerDefaultAndBadFormat(t *testing.T) {
	var buf strings.Builder
	if _, err := NewLogger(&buf, "", slog.LevelInfo); err != nil {
		t.Fatalf("empty format rejected: %v", err)
	}
	if _, err := NewLogger(&buf, "xml", slog.LevelInfo); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestDiscardLogger(t *testing.T) {
	if Discard.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("discard logger enabled at error level")
	}
	Discard.With("k", "v").WithGroup("g").Error("dropped")
}
