package server

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Rank liveness. A large run must keep issuing honest verdicts while some
// ranks are dead or stale: the cross-rank watermark (epoch.go) is the
// minimum progress over every reporting rank, so a single silent rank
// would otherwise pin it forever — epochs never close, the analyzer's open
// set grows without bound, and the final report quietly pretends the rank
// might still show up.
//
// Transport clients carry heartbeat frames stamped with their virtual
// clock and a lease duration (wire format below). The server folds them —
// and every record's slice time — into a per-rank last-seen mark; a rank
// whose lag behind the cluster-wide frontier exceeds its lease is suspect,
// and past deadFactor leases it is dead: excluded from the watermark and
// named in the degraded report. Ranks that never heartbeat (the direct
// in-process path) have no lease and are always considered alive, so
// lease-free runs behave exactly as before.

// LivenessState classifies one rank's lease standing.
type LivenessState uint8

const (
	// Alive: the rank's last-seen mark is within its lease of the frontier
	// (or the rank never negotiated a lease).
	Alive LivenessState = iota
	// Suspect: lag exceeds one lease but not deadFactor leases; still
	// counted into the watermark, flagged in reports.
	Suspect
	// Dead: lag exceeds deadFactor leases; excluded from the watermark and
	// reported as such.
	Dead
)

// deadFactor is how many leases of lag turn a suspect rank dead.
const deadFactor = 3

func (st LivenessState) String() string {
	switch st {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return fmt.Sprintf("LivenessState(%d)", uint8(st))
	}
}

// RankLiveness is one rank's liveness snapshot.
type RankLiveness struct {
	Rank       int
	State      LivenessState
	LastSeenNs int64 // newest evidence of life: heartbeat stamp or record slice
	LeaseNs    int64 // 0 when the rank never negotiated a lease
	LagNs      int64 // frontier minus LastSeenNs
}

// Liveness returns every known rank's lease state in rank order.
func (s *Server) Liveness() []RankLiveness { return s.read(readRanks).ranks }

// LivenessSummary aggregates the lease states for gauges and /status.
type LivenessSummary struct {
	Alive, Suspect, Dead int
	FrontierNs           int64
}

// LivenessSummary counts known ranks per state.
func (s *Server) LivenessSummary() LivenessSummary { return s.read(0).liveness }

// receiveHeartbeat folds one heartbeat frame into the sender's shard and,
// when live (replay passes false), journals it if durability is on.
func (s *Server) receiveHeartbeat(rank int, nowNs, leaseNs int64, live bool) error {
	sh := s.shardFor(rank)
	sh.mu.Lock()
	rs := s.touch(sh, rank)
	// >= so a heartbeat stamped at virtual time 0 still records its lease
	// against the zero-valued fresh entry; among equal stamps the last
	// arrival wins, which replay reproduces exactly.
	if nowNs >= rs.hbNs {
		rs.hbNs = nowNs
		rs.leaseNs = leaseNs
	}
	rs.heartbeat = true
	sh.mu.Unlock()
	s.heartbeats.Add(1)
	if live && s.dur != nil {
		return s.dur.logHeartbeat(rank, nowNs, leaseNs)
	}
	return nil
}

// Heartbeats returns how many heartbeat frames the server has folded.
func (s *Server) Heartbeats() int64 { return s.heartbeats.Load() }

// ---------- heartbeat wire format ----------

// Heartbeat frame layout (little endian):
//
//	off  0: u32 magic   "vSH1"
//	off  4: u32 rank
//	off  8: u64 nowNs   sender's virtual clock at emission
//	off 16: u64 leaseNs liveness lease the sender promises to renew within
//	off 24: u32 crc     IEEE CRC32 over bytes [0:24)
const (
	heartbeatMagic = 0x76534831 // "vSH1"
	heartbeatSize  = 28
)

// AppendHeartbeat serializes a heartbeat frame onto dst.
func AppendHeartbeat(dst []byte, rank int, nowNs, leaseNs int64) []byte {
	start := len(dst)
	var hdr [heartbeatSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], heartbeatMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(rank))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(nowNs))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(leaseNs))
	binary.LittleEndian.PutUint32(hdr[24:], crc32.ChecksumIEEE(hdr[:24]))
	return append(dst[:start], hdr[:]...)
}

// IsHeartbeat reports whether data begins with the heartbeat magic. The
// record-frame and heartbeat magics differ, so Receive dispatches on this
// before full validation.
func IsHeartbeat(data []byte) bool {
	return len(data) >= 4 && binary.LittleEndian.Uint32(data) == heartbeatMagic
}

// parseHeartbeat validates a heartbeat frame: exact length, bounded rank,
// non-negative stamps, CRC.
func parseHeartbeat(data []byte) (rank int, nowNs, leaseNs int64, err error) {
	if len(data) != heartbeatSize {
		return 0, 0, 0, fmt.Errorf("server: heartbeat length %d, want %d", len(data), heartbeatSize)
	}
	if got, want := binary.LittleEndian.Uint32(data[24:]), crc32.ChecksumIEEE(data[:24]); got != want {
		return 0, 0, 0, fmt.Errorf("%w: heartbeat says %#x, computed %#x", ErrChecksum, got, want)
	}
	r := binary.LittleEndian.Uint32(data[4:])
	if r > MaxFrameRank {
		return 0, 0, 0, fmt.Errorf("server: heartbeat claims rank %d (max %d)", r, MaxFrameRank)
	}
	nowNs = int64(binary.LittleEndian.Uint64(data[8:]))
	leaseNs = int64(binary.LittleEndian.Uint64(data[16:]))
	if nowNs < 0 || leaseNs < 0 {
		return 0, 0, 0, fmt.Errorf("server: heartbeat with negative stamp (now %d, lease %d)", nowNs, leaseNs)
	}
	return int(r), nowNs, leaseNs, nil
}
