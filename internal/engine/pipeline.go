package engine

import "mllibstar/internal/des"

// sendJob is one queued message of an async Sender; a zero tag is the close
// sentinel.
type sendJob struct {
	to, tag string
	bytes   float64
	payload any
}

// Sender is an asynchronous send queue for a task that wants outbound
// communication off its critical path: Send enqueues a message and returns
// immediately, while a forked child process drains the queue through the
// executor's outbound NIC in FIFO order. This is the double-buffering
// primitive of the pipelined collectives (internal/allreduce): the task
// process receives and folds chunk i while the child is still serializing
// chunk i+1, which is what lets a superstep cost max(compute, comm) instead
// of their sum.
//
// The payload-sharing contract is the caller's, exactly as with a direct
// Executor.Send: a payload handed to Send must stay immutable until the
// message is delivered.
type Sender struct {
	jobs *des.Queue[sendJob]
	join *des.Join
}

// StartSender forks the drain process for a new Sender on this executor.
// name namespaces the internal queue in deadlock reports and must be unique
// per concurrent sender on the node.
func (ex *Executor) StartSender(p *des.Proc, name string) *Sender {
	s := &Sender{jobs: des.NewQueue[sendJob](p.Sim(), ex.name+"/send:"+name)}
	s.join = des.Fork(p, ex.name+"/send:"+name, func(child *des.Proc) {
		for {
			j := s.jobs.Get(child)
			if j.tag == "" {
				return
			}
			ex.Send(child, j.to, j.tag, j.bytes, j.payload)
		}
	})
	ex.cluster.Net.Sink().CausalFork(ex.name, p, s.join.Proc(), p.Now())
	return s
}

// Send enqueues one message; the drain process transmits it after everything
// enqueued before it. Must not be called after Close.
func (s *Sender) Send(to, tag string, bytes float64, payload any) {
	if tag == "" {
		panic("engine: Sender.Send with empty tag")
	}
	s.jobs.Put(sendJob{to: to, tag: tag, bytes: bytes, payload: payload})
}

// Close stops the drain process once the messages already enqueued have been
// sent. It must be called exactly once.
func (s *Sender) Close() { s.jobs.Put(sendJob{}) }
