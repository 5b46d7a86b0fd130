package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// control answers one frame that is not part of a data run: a control op
// (LEN/STATS/OPEN/DELETE), a frame too short for its declared trace/queue
// prefixes, or an unknown opcode. Every failure here is request-scoped —
// a StatusErr reply, never a connection failure.
func (srv *Server) control(s *session, f frame, d decoded, fw *frameWriter) error {
	reply, err := srv.controlOp(s, f, d)
	if err != nil {
		return fw.frame(f.id, StatusErr, []byte(err.Error()))
	}
	return fw.frame(f.id, StatusOK, reply)
}

// controlOp executes one control op and returns its StatusOK payload.
func (srv *Server) controlOp(s *session, f frame, d decoded) ([]byte, error) {
	if d.bad {
		return nil, fmt.Errorf("opcode 0x%02x payload %d bytes, too short for its trace/queue prefix",
			f.kind, len(f.payload))
	}
	switch d.op {
	case OpLen:
		t, ok := srv.ns.lookup(d.qid)
		if !ok {
			return nil, fmt.Errorf("%w: id %d", ErrUnknownQueue, d.qid)
		}
		return binary.BigEndian.AppendUint64(nil, uint64(t.q.Len())), nil
	case OpStats:
		return json.Marshal(srv.Snapshot())
	case OpOpen:
		t, err := srv.openQueue(s, string(d.rest))
		if err != nil {
			return nil, err
		}
		return binary.BigEndian.AppendUint32(nil, t.id), nil
	case OpDelete:
		return nil, srv.ns.remove(string(d.rest))
	default:
		return nil, fmt.Errorf("unknown opcode 0x%02x", f.kind)
	}
}

// openQueue resolves OpOpen for one session: the named queue is created
// on first use (its fabric instantiated then, not before), and the
// session binds to it so the idle reaper leaves it alone while the
// session lives. Creation and binding happen under one namespace lock,
// so the reaper cannot tear a pre-existing idle queue down between the
// two; a re-open of a queue this session already holds undoes the extra
// ref. The handle lease itself stays lazy — opening a queue reserves no
// registry slot until the first data operation.
func (srv *Server) openQueue(s *session, name string) (*tenant, error) {
	t, err := srv.ns.open(name, true)
	if err != nil {
		return nil, err
	}
	if _, ok := s.bindings[t.id]; ok {
		srv.ns.unbind(t) // already bound: one ref per (session, queue)
	} else {
		s.bindings[t.id] = &binding{t: t}
	}
	return t, nil
}
