package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// daemonBin is the medexd binary built once in TestMain, so the
// fault-injection tests kill a real process — signal handling, the
// drain path and the exit code are all exercised as shipped.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "medexd-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	daemonBin = filepath.Join(dir, "medexd")
	if out, err := exec.Command("go", "build", "-o", daemonBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building medexd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr *bytes.Buffer
}

// startDaemon launches medexd on a free port and waits for the
// "listening on" line, so the returned daemon is accepting requests.
func startDaemon(t *testing.T, dbPath string, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-db", dbPath, "-addr", "127.0.0.1:0", "-shards", "4"}, extra...)
	cmd := exec.Command(daemonBin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if line := sc.Text(); strings.Contains(line, "listening on ") {
				addrc <- line[strings.LastIndex(line, " ")+1:]
				break
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	select {
	case addr := <-addrc:
		return &daemon{cmd: cmd, addr: addr, stderr: &stderr}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("daemon never started; stderr:\n%s", stderr.String())
		return nil
	}
}

// produceAcked runs n producer goroutines posting small unique-patient
// batches at the daemon until stop closes or the daemon goes away, and
// returns the patient ids of every batch that was fully acknowledged
// with 202. A 429 is retried (it is the backpressure contract, not a
// failure); any transport error ends the producer — the daemon was
// killed mid-request, so that batch is unacknowledged.
func produceAcked(d *daemon, producers int, stop <-chan struct{}, base int64) []int64 {
	var mu sync.Mutex
	var acked []int64
	var wg sync.WaitGroup
	for p := range producers {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for seq := int64(0); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				pid := base + int64(p)*100_000 + seq
				resp, err := client.Post("http://"+d.addr+"/v1/ingest", "application/x-ndjson",
					strings.NewReader(ndjsonPatients(pid)))
				if err != nil {
					return
				}
				_, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case rerr != nil:
					return
				case resp.StatusCode == http.StatusAccepted:
					mu.Lock()
					acked = append(acked, pid)
					mu.Unlock()
				case resp.StatusCode == http.StatusTooManyRequests:
					time.Sleep(5 * time.Millisecond)
				default:
					return
				}
			}
		}(p)
	}
	wg.Wait()
	return acked
}

// verifyAcked reopens the database the daemon owned and asserts the
// durability contract: every 202-acknowledged patient is present, the
// patient index agrees with the table, and a full scan sees exactly the
// rows the table reports (index == table).
func verifyAcked(t *testing.T, dbPath string, acked []int64) {
	t.Helper()
	eng, err := store.OpenSharded(dbPath, 0)
	if err != nil {
		t.Fatalf("reopening after crash: %v", err)
	}
	defer eng.Close()
	wh, err := core.OpenWarehouse(eng, nil)
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, pid := range acked {
		chart, err := wh.Patient(pid)
		if err != nil {
			t.Fatalf("patient %d: %v", pid, err)
		}
		if len(chart) == 0 {
			lost++
			t.Errorf("acknowledged patient %d has no rows after reopen", pid)
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acknowledged batches lost", lost, len(acked))
	}

	tbl, err := eng.Table(core.ResultTable)
	if err != nil {
		t.Fatal(err)
	}
	scanned := 0
	tbl.Scan(func(store.Row) bool { scanned++; return true })
	if scanned != tbl.Len() {
		t.Fatalf("scan saw %d rows, table reports %d", scanned, tbl.Len())
	}
	for _, pid := range acked {
		rows, st, err := tbl.Query(store.Query{Preds: []store.Pred{store.Eq("patient", store.Int(pid))}})
		if err != nil {
			t.Fatal(err)
		}
		if !st.UsedIndex {
			t.Fatalf("patient query did not use the patient index: %+v", st)
		}
		if len(rows) == 0 {
			t.Fatalf("patient index lost acknowledged patient %d (table has the row)", pid)
		}
	}
}

// TestCrashAckedBatchesSurviveKill is the fault-injection matrix:
// SIGKILL the daemon at randomized points while concurrent producers
// stream batches, reopen the database, and assert zero acknowledged
// writes were lost. The kill window varies per round so the process
// dies during extraction, mid-group-commit, and between commits.
func TestCrashAckedBatchesSurviveKill(t *testing.T) {
	if testing.Short() {
		t.Skip("fault injection is slow")
	}
	rng := rand.New(rand.NewSource(7))
	totalAcked := 0
	for round := range 4 {
		dbPath := filepath.Join(t.TempDir(), "wh.db")
		d := startDaemon(t, dbPath)
		stop := make(chan struct{})
		ackedc := make(chan []int64, 1)
		go func() {
			ackedc <- produceAcked(d, 4, stop, int64(round+1)*10_000_000)
		}()

		delay := 30*time.Millisecond + time.Duration(rng.Intn(250))*time.Millisecond
		time.Sleep(delay)
		if err := d.cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		d.cmd.Wait()
		acked := <-ackedc
		totalAcked += len(acked)
		t.Logf("round %d: killed after %s, %d acknowledged batches", round, delay, len(acked))
		verifyAcked(t, dbPath, acked)
	}
	if totalAcked == 0 {
		t.Fatal("no round acknowledged any batch; the matrix proved nothing")
	}
}

// compactionRuns reads a live daemon's compaction counters from
// /v1/stats. A transport or decode error returns zeros — the daemon
// may already be dying, and the caller only uses the counters to log
// and to prove the matrix exercised compaction at least once.
func compactionRuns(d *daemon) (minor, major int64) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + d.addr + "/v1/stats")
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	var st struct {
		Compaction struct {
			MinorRuns int64 `json:"minorRuns"`
			MajorRuns int64 `json:"majorRuns"`
		} `json:"compaction"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, 0
	}
	return st.Compaction.MinorRuns, st.Compaction.MajorRuns
}

// TestCrashDuringBackgroundCompaction extends the fault-injection
// matrix to the auto-compactor: with thresholds aggressive enough that
// minor folds and fan-out-escalated major merges run continuously
// under ingest, SIGKILL at randomized points lands inside build and
// commit windows of both compaction modes. The durability contract is
// unchanged — reopen loses no acknowledged batch and the patient index
// agrees with the table.
func TestCrashDuringBackgroundCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("fault injection is slow")
	}
	rng := rand.New(rand.NewSource(11))
	flags := []string{"-compact-mem-rows", "20", "-compact-wal-bytes", "8192", "-compact-fanout", "2"}
	totalAcked, roundsCompacted := 0, 0
	for round := range 4 {
		dbPath := filepath.Join(t.TempDir(), "wh.db")
		d := startDaemon(t, dbPath, flags...)
		stop := make(chan struct{})
		ackedc := make(chan []int64, 1)
		go func() {
			ackedc <- produceAcked(d, 4, stop, int64(round+1)*20_000_000)
		}()

		delay := 50*time.Millisecond + time.Duration(rng.Intn(400))*time.Millisecond
		time.Sleep(delay)
		minor, major := compactionRuns(d)
		if minor+major > 0 {
			roundsCompacted++
		}
		if err := d.cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		d.cmd.Wait()
		acked := <-ackedc
		totalAcked += len(acked)
		t.Logf("round %d: killed after %s with %d minor / %d major compactions done, %d acknowledged batches",
			round, delay, minor, major, len(acked))
		verifyAcked(t, dbPath, acked)
	}
	if totalAcked == 0 {
		t.Fatal("no round acknowledged any batch; the matrix proved nothing")
	}
	if roundsCompacted == 0 {
		t.Fatal("no round completed a background compaction before the kill; thresholds too lax for the matrix")
	}
}

// TestGracefulShutdownDrains: SIGTERM mid-ingest must drain in-flight
// batches, close cleanly (exit 0), and lose nothing acknowledged.
func TestGracefulShutdownDrains(t *testing.T) {
	dbPath := filepath.Join(t.TempDir(), "wh.db")
	d := startDaemon(t, dbPath)
	stop := make(chan struct{})
	ackedc := make(chan []int64, 1)
	go func() {
		ackedc <- produceAcked(d, 4, stop, 1_000_000)
	}()

	time.Sleep(200 * time.Millisecond)
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exited dirty: %v\nstderr:\n%s", err, d.stderr.String())
	}
	close(stop)
	acked := <-ackedc
	if !strings.Contains(d.stderr.String(), "drained and closed") {
		t.Fatalf("no drain log line; stderr:\n%s", d.stderr.String())
	}
	t.Logf("%d acknowledged batches before SIGTERM drain", len(acked))
	verifyAcked(t, dbPath, acked)
}

// TestDaemonBadFlagsExitNonZero: fail-fast config validation — a
// misconfigured daemon must die at startup with a one-line error, not
// limp along.
func TestDaemonBadFlagsExitNonZero(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		substr string
	}{
		{"missing db", []string{"-addr", "127.0.0.1:0"}, "-db is required"},
		{"zero queue", []string{"-db", filepath.Join(t.TempDir(), "x.db"), "-queue", "0"}, "-queue must be positive"},
		{"bad strategy", []string{"-db", filepath.Join(t.TempDir(), "x.db"), "-strategy", "psychic"}, `unknown strategy "psychic"`},
		{"huge shards", []string{"-db", filepath.Join(t.TempDir(), "x.db"), "-shards", "9999"}, "-shards must be at most 1024"},
		{"zero drain timeout", []string{"-db", filepath.Join(t.TempDir(), "x.db"), "-drain-timeout", "0s"}, "-drain-timeout must be a positive duration"},
		{"zero compact trigger", []string{"-db", filepath.Join(t.TempDir(), "x.db"), "-compact-mem-rows", "0"}, "-compact-mem-rows must be positive"},
		{"negative compact wal bytes", []string{"-db", filepath.Join(t.TempDir(), "x.db"), "-compact-wal-bytes", "-1"}, "-compact-wal-bytes must be positive"},
		{"zero compact fanout", []string{"-db", filepath.Join(t.TempDir(), "x.db"), "-compact-fanout", "0"}, "-compact-fanout must be positive"},
	}
	for _, tc := range cases {
		out, err := exec.Command(daemonBin, tc.args...).CombinedOutput()
		if err == nil {
			t.Errorf("%s: daemon started instead of failing", tc.name)
			continue
		}
		if !strings.Contains(string(out), tc.substr) {
			t.Errorf("%s: output %q does not contain %q", tc.name, out, tc.substr)
		}
	}
}
