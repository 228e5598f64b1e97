package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
)

// logLevel is the process-wide minimum level, adjustable at runtime.
var logLevel = func() *slog.LevelVar {
	v := new(slog.LevelVar)
	v.Set(slog.LevelInfo)
	return v
}()

// logHandler holds the configured slog.Handler so Component loggers built
// before ConfigureLogging still route through the final handler.
var logHandler atomic.Pointer[slog.Handler]

func init() {
	var h slog.Handler = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel})
	logHandler.Store(&h)
}

// dynamicHandler defers to the currently configured handler on every call,
// so loggers captured at package init pick up later ConfigureLogging calls.
type dynamicHandler struct {
	attrs  []slog.Attr
	groups []string
}

func (d dynamicHandler) resolve() slog.Handler {
	h := *logHandler.Load()
	for _, g := range d.groups {
		h = h.WithGroup(g)
	}
	if len(d.attrs) > 0 {
		h = h.WithAttrs(d.attrs)
	}
	return h
}

func (d dynamicHandler) Enabled(_ context.Context, level slog.Level) bool {
	return level >= logLevel.Level()
}

func (d dynamicHandler) Handle(ctx context.Context, r slog.Record) error {
	return d.resolve().Handle(ctx, r)
}

func (d dynamicHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nd := dynamicHandler{groups: d.groups}
	nd.attrs = append(append([]slog.Attr(nil), d.attrs...), attrs...)
	return nd
}

func (d dynamicHandler) WithGroup(name string) slog.Handler {
	nd := dynamicHandler{attrs: d.attrs}
	nd.groups = append(append([]string(nil), d.groups...), name)
	return nd
}

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// ConfigureLogging installs the process-wide logging configuration:
// level is debug|info|warn|error, format is text|json, and w is the sink
// (nil = os.Stderr). It rebinds slog.Default and every Component logger.
func ConfigureLogging(level, format string, w io.Writer) error {
	lv, err := ParseLevel(level)
	if err != nil {
		return err
	}
	if w == nil {
		w = os.Stderr
	}
	opts := &slog.HandlerOptions{Level: logLevel}
	var h slog.Handler
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "", "text":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return fmt.Errorf("obs: unknown log format %q (want text|json)", format)
	}
	logLevel.Set(lv)
	logHandler.Store(&h)
	slog.SetDefault(slog.New(dynamicHandler{}))
	return nil
}

// Component returns a logger tagged with component=name that always routes
// through the currently configured handler, so it is safe to capture in a
// package-level var before flags are parsed.
func Component(name string) *slog.Logger {
	return slog.New(dynamicHandler{attrs: []slog.Attr{slog.String("component", name)}})
}
