package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"tdp/internal/cluster"
	"tdp/internal/core"
	"tdp/internal/tube"
	"tdp/internal/wire"
)

// Cluster shape shared by every workload.
const (
	startNodes      = 4
	queueDepth      = 4096
	replicateEvery  = 25 * time.Millisecond
	replicateFanout = 2
	readyTimeout    = 10 * time.Second
)

// node is one tube.Server on a loopback listener.
type node struct {
	id    string
	opt   *tube.Optimizer
	srv   *tube.Server
	gui   *tube.GUI
	addr  string
	depth int // replication tree depth (0 = leader)

	ln     net.Listener
	served chan error // nil until start serves ln
}

// plane is the serving plane under test: the nodes, the router that
// feeds them and the control client that pushes ring changes.
type plane struct {
	scn     *core.Scenario
	classes []string
	w       spec

	sender *cluster.HTTPSender
	router *cluster.Router
	ctl    *http.Client // ring pushes

	mu     sync.Mutex
	nodes  []*node        // guarded by mu: every node started, leader first
	spares []*node        // guarded by mu: built at set-up, not yet joined
	ring   cluster.Config // guarded by mu: the ring the nodes were last told
}

// newPlane starts startNodes nodes (n0 leads, the rest replicate through
// the fan-out tree), waits until every follower serves a price, and
// builds the router over wrap(HTTPSender).
func newPlane(scn *core.Scenario, classes []string, w spec, wrap func(cluster.Sender) cluster.Sender) (*plane, error) {
	p := &plane{scn: scn, classes: classes, w: w, ctl: &http.Client{Timeout: 10 * time.Second}}
	if err := p.build(wrap); err != nil {
		return nil, errors.Join(err, p.shutdown())
	}
	return p, nil
}

// build does newPlane's work before the plane is shared; on error the
// caller shuts down whatever it started.
func (p *plane) build(wrap func(cluster.Sender) cluster.Sender) error {
	ring := cluster.Config{Version: 1}
	for i := 0; i < startNodes; i++ {
		// Only the leader re-estimates patience: followers serve the
		// leader's replicated price, so a follower's estimate feeds nothing.
		nd, err := p.newNode(fmt.Sprintf("n%d", i), i == 0 && p.w.streaming)
		if err != nil {
			return err
		}
		p.nodes = append(p.nodes, nd)
		ring.Members = append(ring.Members, cluster.Member{ID: nd.id, Addr: nd.addr})
	}
	p.ring = ring
	if p.w.ringChanges {
		// Joiners are brought up (optimizer, listener) before the run, as
		// an operator would; joining is the ring change itself.
		for _, id := range []string{"n4", "n5"} {
			nd, err := p.newNode(id, false)
			if err != nil {
				return err
			}
			p.spares = append(p.spares, nd)
		}
	}
	for _, nd := range p.nodes {
		if err := p.start(nd, ring); err != nil {
			return err
		}
	}
	for _, nd := range p.nodes[1:] {
		if err := waitReady(nd); err != nil {
			return err
		}
	}
	tab, err := wire.NewClassTable(p.classes)
	if err != nil {
		return err
	}
	built, err := cluster.Build(ring)
	if err != nil {
		return err
	}
	p.sender = cluster.NewHTTPSender(30 * time.Second)
	var s cluster.Sender = p.sender
	if wrap != nil {
		s = wrap(s)
	}
	if p.router, err = cluster.NewRouter(tab, built, s); err != nil {
		return err
	}
	// The load budget: at most nproc requests in flight, one of them the
	// price probe's.
	return p.router.SetInflight(max(1, runtime.NumCPU()-1))
}

// newNode builds a node's optimizer (including its initial price solve),
// server, listener and GUI client; start serves it.
func (p *plane) newNode(id string, streaming bool) (*node, error) {
	cfg := tube.OptimizerConfig{
		Scenario: p.scn.Clone(), // the online engine updates its demand rows in place
		Classes:  p.classes,
	}
	if streaming {
		cfg.Streaming, cfg.StreamWindow = true, 1
	}
	opt, err := tube.NewOptimizer(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := tube.NewServer(opt)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	addr := "http://" + ln.Addr().String()
	gui, err := tube.NewGUI(addr)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return &node{id: id, opt: opt, srv: srv, gui: gui, addr: addr, ln: ln}, nil
}

// start joins nd to the plane under ring and serves it; every node but
// the ring's first member follows it.
func (p *plane) start(nd *node, ring cluster.Config) error {
	opts := tube.ClusterOptions{SelfID: nd.id, Ring: ring, QueueDepth: queueDepth}
	leader := ring.Members[0]
	if leader.ID != nd.id {
		opts.LeaderURL = leader.Addr
		opts.ReplicateEvery = replicateEvery
		opts.ReplicateFanout = replicateFanout
	}
	built, err := cluster.Build(ring)
	if err != nil {
		return err
	}
	for cur := nd.id; cur != leader.ID; nd.depth++ {
		parent, ok := cluster.TreeParent(built, leader.ID, cur, replicateFanout)
		if !ok {
			break
		}
		cur = parent.ID
	}
	if err := nd.srv.EnableCluster(opts); err != nil {
		return err
	}
	nd.served = make(chan error, 1)
	go func() { nd.served <- nd.srv.Serve(nd.ln) }()
	return nil
}

// waitReady polls a follower until it serves a replicated price.
func waitReady(nd *node) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		_, err := nd.gui.PullPrice(context.Background())
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %s not ready: %w", nd.id, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// leader returns n0.
func (p *plane) leader() *node {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nodes[0]
}

// all returns every node started so far, leader first.
func (p *plane) all() []*node {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*node(nil), p.nodes...)
}

// join starts the next spare node under the next ring version and pushes
// that ring to every other node through put; the router is deliberately
// left stale.
func (p *plane) join(put func(nd *node, cfg cluster.Config) error) error {
	p.mu.Lock()
	if len(p.spares) == 0 {
		p.mu.Unlock()
		return errors.New("no spare node to join")
	}
	nd := p.spares[0]
	p.spares = p.spares[1:]
	ring := cluster.Config{Version: p.ring.Version + 1,
		Members: append(append([]cluster.Member(nil), p.ring.Members...), cluster.Member{ID: nd.id, Addr: nd.addr})}
	p.mu.Unlock()
	if err := p.start(nd, ring); err != nil {
		return errors.Join(err, nd.stop())
	}
	if err := waitReady(nd); err != nil {
		return errors.Join(err, nd.stop())
	}
	p.mu.Lock()
	others := append([]*node(nil), p.nodes...)
	p.nodes = append(p.nodes, nd)
	p.ring = ring
	p.mu.Unlock()
	return pushAll(others, ring, put)
}

// remove takes a node out of the ring. Its process stays up, drains and
// is accounted — the drain-before-decommission pattern. The leaving node
// hears of the new ring last: a router learns of it from that node's
// rejections, and the members it then resends to must already own the
// moved users, or the router spends its retry rounds on their refusals
// and the Send fails.
func (p *plane) remove(id string, put func(nd *node, cfg cluster.Config) error) error {
	p.mu.Lock()
	ring := cluster.Config{Version: p.ring.Version + 1}
	for _, m := range p.ring.Members {
		if m.ID != id {
			ring.Members = append(ring.Members, m)
		}
	}
	p.ring = ring
	var order []*node
	var leaving *node
	for _, nd := range p.nodes {
		if nd.id == id {
			leaving = nd
		} else {
			order = append(order, nd)
		}
	}
	if leaving != nil {
		order = append(order, leaving)
	}
	p.mu.Unlock()
	return pushAll(order, ring, put)
}

func pushAll(nodes []*node, ring cluster.Config, put func(nd *node, cfg cluster.Config) error) error {
	var errs []error
	for _, nd := range nodes {
		if err := put(nd, ring); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// putRing pushes a ring config to one node's control endpoint.
func (p *plane) putRing(nd *node, cfg cluster.Config) error {
	body, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, nd.addr+"/cluster/ring", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.ctl.Do(req)
	if err != nil {
		return fmt.Errorf("PUT ring to %s: %w", nd.id, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PUT ring to %s: status %d", nd.id, resp.StatusCode)
	}
	return nil
}

// stop shuts one node down and waits for its Serve loop to return.
func (nd *node) stop() error {
	if nd.served == nil {
		return nd.ln.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := nd.srv.Shutdown(ctx)
	if serr := <-nd.served; err == nil {
		err = serr
	}
	return err
}

// shutdown stops every node and drops the clients' idle connections.
func (p *plane) shutdown() error {
	var errs []error
	p.mu.Lock()
	nodes := append(append([]*node(nil), p.nodes...), p.spares...)
	p.mu.Unlock()
	for _, nd := range nodes {
		if err := nd.stop(); err != nil {
			errs = append(errs, fmt.Errorf("stop %s: %w", nd.id, err))
		}
	}
	if p.sender != nil {
		p.sender.Client.CloseIdleConnections()
	}
	p.ctl.CloseIdleConnections()
	return errors.Join(errs...)
}
