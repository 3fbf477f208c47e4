// Command buffy-serve runs Buffy as a long-lived analysis service: an
// HTTP JSON API in front of the internal/service job engine, with a
// bounded worker pool, a content-addressed result cache, per-job
// deadlines, span tracing, structured logs and graceful drain on
// SIGINT/SIGTERM.
//
//	buffy-serve -addr :8080 -workers 8 -queue 128 -cache 512 -timeout 60s
//
//	curl -s localhost:8080/v1/witness -d '{"source":"...", "t":6, "params":{"N":3}}'
//	curl -sN localhost:8080/v1/sweep -d '{"source":"...", "max_t":8, "sweep_mode":"witness"}'
//	                                                        # NDJSON verdict stream
//	curl -s localhost:8080/v1/verify?async=1 -d @req.json   # 202 + job ID
//	curl -s localhost:8080/v1/jobs/j00000001
//	curl -s localhost:8080/v1/jobs/j00000001/trace          # span tree
//	curl -s localhost:8080/v1/jobs/j00000001/progress       # live solver effort
//	curl -s localhost:8080/v1/traces                        # recent traces
//	curl -s localhost:8080/metrics
//
// Profiling is opt-in: -pprof-addr 127.0.0.1:6060 serves net/http/pprof
// on a separate listener (keep it off the public address).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"buffy/internal/service"
	"buffy/internal/store"
	"buffy/internal/telemetry"
)

// validateSizing rejects zero/negative pool and store sizes at startup
// with a clear error, instead of letting a typo'd flag select library
// defaults (0) or disable a subsystem (<0) silently.
func validateSizing(sessions int, sessionBytes, storeBytes int64) error {
	if sessions <= 0 {
		return fmt.Errorf("-sessions must be positive (got %d)", sessions)
	}
	if sessionBytes <= 0 {
		return fmt.Errorf("-session-bytes must be positive (got %d)", sessionBytes)
	}
	if storeBytes <= 0 {
		return fmt.Errorf("-store-bytes must be positive (got %d)", storeBytes)
	}
	return nil
}

// validateExport rejects malformed OTLP endpoints at startup, same
// fail-fast discipline as validateSizing: a typo'd collector URL should
// refuse to boot, not silently drop every trace batch at runtime. (The
// spool dir is validated by telemetry.NewExporter, which probes it by
// creating the spool file.)
func validateExport(endpoint string) error {
	if endpoint == "" {
		return nil
	}
	return telemetry.ValidateEndpoint(endpoint)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "solver worker pool size (default GOMAXPROCS)")
	queue := flag.Int("queue", 64, "bounded job queue depth")
	cacheN := flag.Int("cache", 256, "result cache entries (0 default, <0 disables)")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-job deadline")
	drain := flag.Duration("drain", 30*time.Second, "graceful drain budget on shutdown")
	retries := flag.Int("retries", 1, "max retries for transient failures (budget exhaustion, panic, disagreement)")
	backoff := flag.Duration("retry-backoff", 50*time.Millisecond, "initial retry backoff (doubles per attempt)")
	sessions := flag.Int("sessions", 32, "warm-session pool entries for /v1/sweep (must be positive)")
	sessionBytes := flag.Int64("session-bytes", 256<<20, "warm-session pool memory budget, estimated bytes (must be positive)")
	storeDir := flag.String("store-dir", "", "durable result store directory (empty disables the disk cache tier)")
	storeBytes := flag.Int64("store-bytes", 1<<30, "durable result store byte budget, LRU-evicted beyond it (must be positive)")
	traceSpans := flag.Int("trace-spans", 0, "max spans per job trace (0 default)")
	traceKeep := flag.Int("trace-retention", 128, "finished traces kept for /v1/traces")
	otlpEndpoint := flag.String("otlp-endpoint", "", "OTLP/HTTP traces URL to push finished job traces to, e.g. http://localhost:4318/v1/traces (empty disables)")
	traceDir := flag.String("trace-dir", "", "directory for OTLP-shaped NDJSON trace spool files (empty disables)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: buffy-serve [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	if err := validateSizing(*sessions, *sessionBytes, *storeBytes); err != nil {
		fmt.Fprintf(os.Stderr, "buffy-serve: %v\n", err)
		os.Exit(2)
	}
	if err := validateExport(*otlpEndpoint); err != nil {
		fmt.Fprintf(os.Stderr, "buffy-serve: %v\n", err)
		os.Exit(2)
	}

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "buffy-serve: %v\n", err)
		os.Exit(2)
	}

	var exporter *telemetry.Exporter
	if *otlpEndpoint != "" || *traceDir != "" {
		exporter, err = telemetry.NewExporter(telemetry.ExportOptions{
			Endpoint: *otlpEndpoint,
			Dir:      *traceDir,
			Resource: []telemetry.Attr{
				telemetry.String("service.name", "buffy-serve"),
				telemetry.String("service.version", service.Version),
			},
			OnError: func(err error) { logger.Warn("trace export", "err", err.Error()) },
		})
		if err != nil {
			// Same deployment-error stance as a bad store dir: an unwritable
			// spool dir fails startup instead of dropping every batch later.
			fmt.Fprintf(os.Stderr, "buffy-serve: %v\n", err)
			os.Exit(2)
		}
		logger.Info("trace export enabled", "otlp_endpoint", *otlpEndpoint, "trace_dir", *traceDir)
	}

	var resultStore *store.Store
	if *storeDir != "" {
		resultStore, err = store.Open(store.Options{
			Dir:         *storeDir,
			Fingerprint: service.PipelineFingerprint(),
			MaxBytes:    *storeBytes,
			Logger:      logger,
		})
		if err != nil {
			// A misconfigured store dir is a deployment error: failing fast
			// beats silently running ephemeral.
			fmt.Fprintf(os.Stderr, "buffy-serve: %v\n", err)
			os.Exit(1)
		}
		logger.Info("durable result store open", "dir", *storeDir,
			"budget_bytes", *storeBytes, "read_only", resultStore.ReadOnly())
	}

	engine := service.New(service.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheEntries:    *cacheN,
		DefaultTimeout:  *timeout,
		MaxRetries:      *retries,
		RetryBackoff:    *backoff,
		Logger:          logger,
		TraceSpans:      *traceSpans,
		TraceRetention:  *traceKeep,
		SessionEntries:  *sessions,
		SessionMaxBytes: *sessionBytes,
		Store:           resultStore,
		Exporter:        exporter,
	})
	handler := service.WithRequestLogging(logger, service.NewHandler(engine))
	server := &http.Server{Addr: *addr, Handler: handler}

	if *pprofAddr != "" {
		// pprof gets its own mux on its own listener so profiling is never
		// reachable through the public API address.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				logger.Error("pprof server failed", "err", err.Error())
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- server.ListenAndServe() }()
	logger.Info("buffy-serve listening", "addr", *addr, "version", service.Version,
		"workers", *workers, "queue", *queue, "cache", *cacheN, "timeout", timeout.String())

	select {
	case err := <-errc:
		logger.Error("server failed", "err", err.Error())
		os.Exit(1)
	case <-ctx.Done():
	}

	// Drain order matters for the probe split: fail readiness first (so
	// balancers stop routing here), drain the engine while the HTTP
	// server KEEPS serving — /healthz/ready answers 503, /healthz/live
	// answers 200, in-flight synchronous handlers finish, new submits get
	// 503 + Retry-After — and only then take the listener down.
	engine.BeginDrain()
	logger.Info("draining", "budget", drain.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := engine.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.Canceled) {
		logger.Warn("engine drain incomplete", "err", err.Error())
	}
	// Engine drained (or force-cancelled at the budget): flush remaining
	// handlers — including the 503s a forced drain wakes — and exit.
	flushCtx, flushCancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer flushCancel()
	if err := server.Shutdown(flushCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("connection flush failed", "err", err.Error())
	}
	// Workers are drained, so no new traces can arrive: flush whatever the
	// export queue still holds and close the spool.
	exporter.Close()
	logger.Info("bye")
}

// newLogger builds the process logger from the -log-format/-log-level
// flags. Logs go to stderr, keeping stdout clean for tooling.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("unknown log format %q", format)
}
