package runtime

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
)

func init() {
	RegisterGraph("kv-calltimeout", kvGraph)
}

// TestCallTimeoutIsReplayed pins the worker-side timeout of Call as an
// ambiguous outcome: the worker enqueued the put, answered with a timeout
// and applied the put afterwards. The coordinator must have logged it, so a
// worker that dies before any checkpoint gets the put back by replay.
func TestCallTimeoutIsReplayed(t *testing.T) {
	local := func(w *Worker) WorkerEndpoint {
		return WorkerEndpoint{Data: cluster.Local(w.Handler(), 0), Control: cluster.Local(w.Handler(), 0)}
	}
	w0 := NewWorker()
	defer w0.Close()
	ep0 := local(w0)
	coord, err := NewCoordinator("kv-calltimeout", []WorkerEndpoint{ep0}, CoordOptions{})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Close()

	rt, err := w0.runtime()
	if err != nil {
		t.Fatal(err)
	}
	resume := rt.pauseAll()
	_, err = coord.Call("put", 7, []byte("v"), time.Millisecond)
	resume()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Call with the worker paused: %v, want ErrTimeout", err)
	}
	if !coord.Drain(testTimeout) {
		t.Fatal("worker did not apply the timed-out put")
	}

	// Crash the worker before any checkpoint: only the replay log holds the
	// put now.
	ep0.Data.Close()
	ep0.Control.Close()
	w0.Close()
	coord.markDead(0)
	w1 := NewWorker()
	defer w1.Close()
	if err := coord.RecoverWorker(0, local(w1)); err != nil {
		t.Fatalf("RecoverWorker: %v", err)
	}
	if !coord.Drain(testTimeout) {
		t.Fatal("recovered worker did not quiesce")
	}
	dump, err := coord.DumpKV("store")
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	if !bytes.Equal(dump[7], []byte("v")) {
		t.Fatalf("key 7 after recovery: %q, want %q (timed-out put not replayed)", dump[7], "v")
	}
}
