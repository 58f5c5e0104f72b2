package higgs_test

import (
	"higgs/internal/ingest"
	"higgs/internal/query"
	"higgs/internal/rcache"
	"higgs/internal/server"
	"higgs/internal/shard"
	"higgs/internal/stream"
	"higgs/internal/wal"
)

// The nested benchmark/ module compiles against these signatures, and
// `go build ./... && go test ./...` never enters it — so a moved signature
// would stay invisible until CI's separate `cd benchmark && go vet ./...`
// step. These assignments put that compile surface under tier-1: change
// one of them only in a [benchmark]-tagged PR that edits benchmark/ too.
var (
	_ func(wal.Config) (*wal.Log, error)                                = wal.Open
	_ func([]stream.Edge, func(uint64) error) (uint64, error)           = (*wal.Log)(nil).Append
	_ func(uint64) error                                                = (*wal.Log)(nil).WaitSynced
	_ func() uint64                                                     = (*wal.Log)(nil).SyncedSeq
	_ func() error                                                      = (*wal.Log)(nil).Close
	_ func(*shard.Summary, ingest.Config) (*ingest.Pipeline, error)     = ingest.New
	_ func(*shard.Summary, *wal.Log) (int64, error)                     = ingest.Recover
	_ func() ingest.Config                                              = ingest.DefaultConfig
	_ func([]stream.Edge) (bool, error)                                 = (*ingest.Pipeline)(nil).Submit
	_ func()                                                            = (*ingest.Pipeline)(nil).Flush
	_ func(int64) (int64, error)                                        = (*ingest.Pipeline)(nil).Expire
	_ func(*shard.Summary, ingest.Config) (*server.Server, error)       = server.NewWithIngest
	_ func(int64) error                                                 = (*server.Server)(nil).SetReadCache
	_ func(int, []stream.Edge, uint64)                                  = (*shard.Summary)(nil).InsertShardAt
	_ func(int64, uint64) int64                                         = (*shard.Summary)(nil).ExpireAt
	_ func(int, []query.Probe, []int64)                                 = (*shard.Summary)(nil).ProbeShard
	_ func(uint64) int                                                  = (*shard.Summary)(nil).ShardFor
	_ func(rcache.Backend, rcache.Config) (*rcache.Cache, error)        = rcache.New
	_ func(query.Prober, query.Analytics, []query.Query) []query.Result = query.DoBatchWith
)
