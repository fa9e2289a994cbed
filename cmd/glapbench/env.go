package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
)

// envMeta records the host execution environment in every benchmark report.
// A committed JSON file is only meaningful next to the machine shape it was
// taken on: a wall-time column from a GOMAXPROCS=1 host measures scheduling
// overhead, not parallelism, and embedding the shape in the report makes
// that impossible to overlook after the fact.
type envMeta struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	GOGC       int `json:"gogc"`
}

// gogc reads the GC percentage in force from the environment: the runtime
// offers no read-only getter (debug.SetGCPercent is a swap) and nothing in
// this command changes it.
func gogc() int {
	if s := os.Getenv("GOGC"); s != "" {
		if s == "off" {
			return -1
		}
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return 100
}

func currentEnv() envMeta {
	return envMeta{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GOGC: gogc()}
}

// warnIfSerial prints the shared single-thread warning at generation time,
// so a throttled or single-core run announces itself in the log as well as
// in the JSON.
func (m envMeta) warnIfSerial() {
	if m.GOMAXPROCS == 1 {
		fmt.Println("WARNING: GOMAXPROCS=1 — parallel rows share one OS thread; " +
			"wall-time columns measure scheduling overhead, not parallelism.")
	}
}
