package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
)

// Structured logging. The command binaries log through log/slog; this
// constructor centralises the -log-format flag handling so every binary
// accepts the same values.

// Log formats accepted by NewLogger (the -log-format flag).
const (
	LogText = "text"
	LogJSON = "json"
)

// NewLogger builds a slog.Logger writing to w in the given format
// ("text" or "json") at the given level. An unknown format is an error —
// the binaries surface it as flag misuse.
func NewLogger(w io.Writer, format string, level slog.Level) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch format {
	case LogText, "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case LogJSON:
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want %q or %q)", format, LogText, LogJSON)
	}
}

// Discard is a logger that drops every record: what a component built
// without a Log logs to. (slog.DiscardHandler needs Go 1.24; the module
// targets 1.22.)
var Discard = slog.New(discardHandler{})

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
