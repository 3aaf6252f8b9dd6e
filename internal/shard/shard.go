// Package shard is an empty remnant of the slot-sharded dispatch engine,
// which was deleted because it never beat the sequential periodic check
// (DESIGN.md §9). It exists only so the repository benchmark's framework
// interface (perfbench/trace.go), which names *shard.Engine, keeps
// compiling until a benchmark change drops that method.
package shard

// Engine has no behaviour; core.Framework.ShardEngine always returns nil.
type Engine struct{}
