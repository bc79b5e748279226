// Daemon quickstart: boot the SpeedyBox daemon in-process, drive its
// HTTP/JSON admin API like an operator would — scrape status, apply a
// live chain plan while traffic flows, take a checkpoint — and shut it
// down cleanly. The same API is served by the standalone binary:
//
//	go run ./cmd/speedyboxd -addr 127.0.0.1:7070
//	curl -s -X POST 127.0.0.1:7070/v1/plan \
//	  -d '{"op":"insert","pos":2,"nf":{"type":"monitor","name":"mon-b"}}'
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	speedybox "github.com/fastpathnfv/speedybox"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Zero-value config is runnable: the paper's Chain 1 on the BESS
	// model, an ephemeral admin port, and the built-in traffic pump
	// replaying a deterministic trace window after window.
	d, err := speedybox.NewDaemon(speedybox.DaemonConfig{
		Pump: speedybox.DaemonPumpConfig{Flows: 150, Gap: 2 * time.Millisecond},
	})
	if err != nil {
		return err
	}
	if err := d.Start(); err != nil {
		return err
	}
	fmt.Println("admin API:", d.URL())

	// Let a few trace windows flow, then look at the control plane's
	// view of the data path.
	time.Sleep(200 * time.Millisecond)
	status, err := getJSON(d.URL() + "/v1/status")
	if err != nil {
		return err
	}
	fmt.Printf("state=%v chain=%v epoch=%v\n",
		status["state"], status["chain"], status["epoch"])
	stats := status["stats"].(map[string]any)
	fmt.Printf("packets=%v fast_path=%v dropped=%v\n",
		stats["packets"], stats["fast_path"], stats["dropped"])

	// Live reconfiguration over HTTP: insert a second monitor while
	// the pump keeps replaying traffic. The epoch bump invalidates
	// consolidated rules; affected flows transparently re-record.
	plan := `{"op":"insert","pos":2,"nf":{"type":"monitor","name":"mon-b"}}`
	applied, err := postJSON(d.URL()+"/v1/plan", []byte(plan))
	if err != nil {
		return err
	}
	fmt.Printf("plan applied: epoch=%v chain=%v\n", applied["epoch"], applied["chain"])

	// A failing request returns a machine-readable code, never just a
	// message to pattern-match.
	_, err = postJSON(d.URL()+"/v1/plan", []byte(`{"op":"remove","name":"nosuch"}`))
	fmt.Println("bad plan rejected:", err)

	// Checkpoint while traffic flows: the engine waits out the vectors
	// in flight and snapshots. Inline returns the bytes (and the durable
	// WAL) for POST /v1/restore on a fresh daemon.
	cp, err := postJSON(d.URL()+"/v1/checkpoint", []byte(`{"inline":true}`))
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint: epoch=%v bytes=%v wal_seq=%v\n",
		cp["epoch"], cp["bytes"], cp["wal_seq"])

	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Println("clean shutdown, state:", d.State())
	return nil
}

// getJSON fetches and decodes one API response.
func getJSON(url string) (map[string]any, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return decode(resp)
}

// postJSON posts a body and decodes the response, surfacing the API's
// {code, message} envelope as an error on non-2xx statuses.
func postJSON(url string, body []byte) (map[string]any, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return decode(resp)
}

func decode(resp *http.Response) (map[string]any, error) {
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	if resp.StatusCode >= 400 {
		return nil, fmt.Errorf("HTTP %d: code=%v message=%v",
			resp.StatusCode, m["code"], m["message"])
	}
	return m, nil
}
