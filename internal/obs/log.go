package obs

import (
	"io"
	"log/slog"
	"os"
	"strings"
)

// ParseLevel maps a -log-level flag value ("debug", "info", "warn",
// "error") to a slog.Level, defaulting to Info for unknown strings.
func ParseLevel(s string) slog.Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// NewLogger builds a structured logger writing to w (os.Stderr when
// nil) at the given level, as logfmt-style text or JSON. component is
// attached to every record so multi-binary log streams stay
// attributable.
func NewLogger(w io.Writer, component string, level slog.Level, jsonFormat bool) *slog.Logger {
	if w == nil {
		w = os.Stderr
	}
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if jsonFormat {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	l := slog.New(h)
	if component != "" {
		l = l.With("component", component)
	}
	return l
}
