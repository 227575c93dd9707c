//! Spatial query serving for the buffered R-tree workspace.
//!
//! The paper's lever is that buffering converts repeated page touches
//! into one physical read; PR 5's batch executor showed the same lever
//! works *across* concurrent queries. This crate closes the loop into a
//! served system: a framed TCP protocol ([`wire`]), a thread-per-
//! connection front-end ([`server`]) that funnels requests into a
//! micro-batching scheduler ([`batcher`]) with a count-or-deadline window,
//! execution back-ends over the disk tree ([`engine`]), and an open-loop
//! load generator ([`loadgen`]) that measures the batch-window-vs-latency
//! tradeoff end to end.
//!
//! ```
//! use rtree_server::{serve, SequentialEngine, ServerConfig, Client, Request, Response};
//! use rtree_pager::{DiskRTree, MemStore};
//! use rtree_buffer::LruPolicy;
//! use rtree_geom::Rect;
//! use rtree_index::BulkLoader;
//!
//! # fn main() -> std::io::Result<()> {
//! let rects: Vec<Rect> = (0..300)
//!     .map(|i| {
//!         let x = (i as f64 * 0.618) % 0.99;
//!         Rect::new(x, x, x + 0.005, x + 0.005)
//!     })
//!     .collect();
//! let tree = BulkLoader::hilbert(20).load(&rects);
//! let disk = DiskRTree::create(MemStore::new(), &tree, 64, LruPolicy::new())?;
//!
//! let handle = serve(
//!     SequentialEngine::new(disk, 0),
//!     "127.0.0.1:0", // port 0: the OS picks a free port
//!     ServerConfig::default(),
//! )?;
//! let mut client = Client::connect(handle.addr())?;
//! match client.call(&Request::Query(Rect::new(0.1, 0.1, 0.2, 0.2)))? {
//!     Some(Response::Matches(ids)) => assert!(!ids.is_empty()),
//!     other => panic!("unexpected reply: {other:?}"),
//! }
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod batcher;
pub mod engine;
pub mod loadgen;
pub mod server;
pub mod wire;

pub use batcher::{BatchPolicy, BatcherStats, JobOutput, MicroBatcher, SubmitError};
pub use engine::{QueryEngine, SequentialEngine, WriteOp, WriteStats, WriterEngine};
pub use loadgen::{LoadConfig, LoadReport};
pub use server::{serve, serve_with_spawner, Client, ServerConfig, ServerHandle, Spawner};
pub use wire::{FrameError, Request, Response, StatsReply};
