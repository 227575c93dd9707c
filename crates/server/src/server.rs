//! The TCP front-end: accept loop, per-connection request pumps, and
//! graceful shutdown.
//!
//! Each connection gets a thread that reads frames, decodes requests, and
//! submits them to the shared [`MicroBatcher`]. Blocking on the batch
//! result is fine — that *is* the harvesting mechanism: while one
//! connection waits for its window to close, other connections' requests
//! pile into the same batch.
//!
//! Shutdown works without signal handling (std has none, and the
//! workspace takes no libc dependency): a [`wire::Request::Shutdown`]
//! frame, [`ServerHandle::shutdown`], or a `--duration` timer all set one
//! stop flag. The accept loop is non-blocking and polls it; connection
//! reads use a short read timeout and poll it *only between frames*, so a
//! partially received frame is always finished before the check — the
//! stream never desyncs.

use crate::batcher::{BatchPolicy, JobOutput, MicroBatcher, SubmitError};
use crate::engine::{QueryEngine, WriteOp};
use crate::wire::{self, Request, Response, StatsReply};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

/// Server tunables.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Scheduler policy (batch window, queue bound, workers).
    pub batch: BatchPolicy,
    /// Socket read timeout used to poll the stop flag between frames.
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            batch: BatchPolicy::default(),
            read_timeout: Duration::from_millis(50),
        }
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle<E: QueryEngine> {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    batcher: Arc<MicroBatcher<E>>,
    accept_thread: Mutex<Option<thread::JoinHandle<()>>>,
    connections: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How the server creates its threads. Injectable (see
/// [`serve_with_spawner`]) so tests can simulate thread-resource
/// exhaustion without actually exhausting anything.
pub type Spawner =
    Arc<dyn Fn(&str, Box<dyn FnOnce() + Send>) -> io::Result<thread::JoinHandle<()>> + Send + Sync>;

fn os_spawner() -> Spawner {
    Arc::new(|name, f| thread::Builder::new().name(name.to_string()).spawn(f))
}

/// Binds `addr` (port 0 picks an ephemeral port) and serves `engine`
/// until shutdown.
///
/// Failing to spawn the accept loop (thread exhaustion) is a startup
/// error returned from here — never a panic. A later failure to spawn a
/// *connection* handler sheds that one connection with
/// [`Response::Overloaded`] and keeps serving.
pub fn serve<E: QueryEngine>(
    engine: E,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> io::Result<ServerHandle<E>> {
    serve_with_spawner(engine, addr, config, os_spawner())
}

/// [`serve`] with an explicit thread [`Spawner`] — the seam the
/// spawn-failure regression tests inject through.
pub fn serve_with_spawner<E: QueryEngine>(
    engine: E,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
    spawner: Spawner,
) -> io::Result<ServerHandle<E>> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let batcher = MicroBatcher::new(engine, config.batch);
    let connections = Arc::new(Mutex::new(Vec::new()));

    let accept_thread = {
        let stop = Arc::clone(&stop);
        let batcher = Arc::clone(&batcher);
        let connections = Arc::clone(&connections);
        let loop_spawner = Arc::clone(&spawner);
        spawner(
            "rtree-accept",
            Box::new(move || {
                accept_loop(
                    &listener,
                    &stop,
                    &batcher,
                    &connections,
                    config,
                    &loop_spawner,
                );
            }),
        )
        .map_err(|e| io::Error::new(e.kind(), format!("cannot spawn the accept loop: {e}")))?
    };

    Ok(ServerHandle {
        addr,
        stop,
        batcher,
        accept_thread: Mutex::new(Some(accept_thread)),
        connections,
    })
}

impl<E: QueryEngine> ServerHandle<E> {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once shutdown has been requested (by any path).
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The scheduler, for stats and test assertions.
    pub fn batcher(&self) -> &MicroBatcher<E> {
        &self.batcher
    }

    /// Assembles the wire-level stats snapshot served to clients.
    pub fn stats(&self) -> StatsReply {
        stats_reply(&self.batcher)
    }

    /// Stops accepting, waits for connections to finish their in-flight
    /// frames, drains the scheduler queue, and joins every thread.
    /// Idempotent; returns the final counters.
    pub fn shutdown(&self) -> StatsReply {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = lock(&self.accept_thread).take() {
            let _ = t.join();
        }
        loop {
            let conns: Vec<_> = lock(&self.connections).drain(..).collect();
            if conns.is_empty() {
                break;
            }
            for c in conns {
                let _ = c.join();
            }
        }
        self.batcher.shutdown();
        self.stats()
    }
}

fn stats_reply<E: QueryEngine>(batcher: &MicroBatcher<E>) -> StatsReply {
    let s = batcher.stats();
    let io = batcher.engine().io_stats();
    let w = batcher.engine().write_stats();
    StatsReply {
        queries: s.completed,
        batches: s.batches,
        max_batch: s.max_batch,
        rejected: s.rejected,
        physical_reads: io.reads,
        writes: w.writes,
        wal_fsyncs: w.wal_fsyncs,
        commit_batches: w.commit_batches,
    }
}

fn accept_loop<E: QueryEngine>(
    listener: &TcpListener,
    stop: &Arc<AtomicBool>,
    batcher: &Arc<MicroBatcher<E>>,
    connections: &Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
    config: ServerConfig,
    spawner: &Spawner,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let stop = Arc::clone(stop);
                let batcher = Arc::clone(batcher);
                // A handle to answer on if the handler thread cannot be
                // spawned; the moved-in stream is gone by then.
                let mut shed_handle = stream.try_clone().ok();
                let spawned = spawner(
                    "rtree-conn",
                    Box::new(move || {
                        let _ = handle_connection(stream, &stop, &batcher, config);
                    }),
                );
                match spawned {
                    Ok(handle) => lock(connections).push(handle),
                    Err(_) => {
                        // Thread exhaustion: shed exactly this connection
                        // — best-effort typed refusal, then close — and
                        // keep accepting. The accept loop must survive.
                        if let Some(s) = shed_handle.as_mut() {
                            let _ = wire::send_response(s, &Response::Overloaded);
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(1));
            }
            Err(_) => thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Reads one frame with the stop flag polled between frames: a read
/// timeout with **zero** bytes consumed re-checks the flag; once any byte
/// of a frame has arrived, the frame is finished regardless (a client
/// that stalls mid-frame keeps its slot until it completes or drops).
/// `buf` is the connection's: bytes past the frame (a pipelined next
/// request that arrived in the same read) stay in it for the next call.
fn read_frame_polled(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    stop: &AtomicBool,
) -> io::Result<Option<Vec<u8>>> {
    let mut chunk = [0u8; 4096];
    loop {
        match wire::decode_frame(buf) {
            Ok(Some((payload, used))) => {
                buf.drain(..used);
                return Ok(Some(payload));
            }
            Ok(None) => {}
            Err(e) => return Err(e.into()),
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(None)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                };
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if buf.is_empty() && stop.load(Ordering::SeqCst) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn handle_connection<E: QueryEngine>(
    mut stream: TcpStream,
    stop: &AtomicBool,
    batcher: &MicroBatcher<E>,
    config: ServerConfig,
) -> io::Result<()> {
    stream.set_read_timeout(Some(config.read_timeout))?;
    stream.set_nodelay(true)?;
    let mut buf = Vec::new();
    loop {
        let payload = match read_frame_polled(&mut stream, &mut buf, stop) {
            Ok(Some(p)) => p,
            // Clean close, stop requested, or client gone mid-frame.
            Ok(None) | Err(_) => return Ok(()),
        };
        let response = match Request::decode(&payload) {
            // A malformed *payload* in a well-formed frame is answered on
            // a still-aligned stream; framing errors above tear down.
            Err(e) => Response::Error(e.to_string()),
            Ok(req) => dispatch(req, stop, batcher),
        };
        let shutting_down = response == Response::ShuttingDown;
        wire::send_response(&mut stream, &response)?;
        if shutting_down && stop.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

fn dispatch<E: QueryEngine>(
    req: Request,
    stop: &AtomicBool,
    batcher: &MicroBatcher<E>,
) -> Response {
    let submitted = match req {
        Request::Stats => return Response::Stats(stats_reply(batcher)),
        Request::Shutdown => {
            stop.store(true, Ordering::SeqCst);
            return Response::ShuttingDown;
        }
        Request::Query(r) => batcher.submit(r, false),
        Request::Point(x, y) => batcher.submit(rtree_geom::Rect::new(x, y, x, y), false),
        Request::Count(r) => batcher.submit(r, true),
        Request::Insert(r, item) => batcher.submit_write(WriteOp::Insert(r, item)),
        Request::Delete(r, item) => batcher.submit_write(WriteOp::Delete(r, item)),
    };
    match submitted {
        Err(SubmitError::Overloaded) => Response::Overloaded,
        Err(SubmitError::ShuttingDown) => Response::ShuttingDown,
        Ok(rx) => match rx.recv() {
            Err(_) => Response::Error("scheduler dropped the job".into()),
            Ok(Err(e)) => Response::Error(e.to_string()),
            Ok(Ok(JobOutput::Matches(ids))) => Response::Matches(ids),
            Ok(Ok(JobOutput::Count(n))) => Response::Count(n),
            Ok(Ok(JobOutput::Written(found))) => Response::Written(found),
        },
    }
}

/// A minimal blocking client for tests, the load generator, and the CLI.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one request and blocks for its response. `Ok(None)` if the
    /// server closed the connection.
    pub fn call(&mut self, req: &Request) -> io::Result<Option<Response>> {
        wire::send_request(&mut self.stream, req)?;
        wire::recv_response(&mut self.stream)
    }

    /// Sends raw payload bytes in a frame (tests exercise malformed
    /// payloads on an aligned stream).
    pub fn call_raw(&mut self, payload: &[u8]) -> io::Result<Option<Response>> {
        wire::write_frame(&mut self.stream, payload)?;
        wire::recv_response(&mut self.stream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtree_geom::Rect;
    use rtree_pager::IoStats;
    use std::sync::atomic::AtomicUsize;

    struct Echo;

    impl QueryEngine for Echo {
        fn execute(&self, queries: &[Rect]) -> io::Result<Vec<Vec<u64>>> {
            Ok(queries.iter().map(|_| vec![1]).collect())
        }

        fn io_stats(&self) -> IoStats {
            IoStats::default()
        }
    }

    /// A spawner that refuses the first `fail` spawns whose thread name
    /// matches `pattern`, then behaves normally.
    fn failing_spawner(pattern: &'static str, fail: usize) -> (Spawner, Arc<AtomicUsize>) {
        let failures = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&failures);
        let spawner: Spawner = Arc::new(move |name, f| {
            if name.contains(pattern) && counter.fetch_add(1, Ordering::SeqCst) < fail {
                return Err(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "simulated thread exhaustion",
                ));
            }
            thread::Builder::new().name(name.to_string()).spawn(f)
        });
        (spawner, failures)
    }

    #[test]
    fn accept_loop_spawn_failure_is_a_typed_serve_error() {
        let (spawner, _) = failing_spawner("rtree-accept", 1);
        let err = serve_with_spawner(Echo, "127.0.0.1:0", ServerConfig::default(), spawner)
            .err()
            .expect("serve must fail when the accept loop cannot start");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(
            err.to_string().contains("accept loop"),
            "error names the failed component: {err}"
        );
    }

    #[test]
    fn connection_spawn_failure_sheds_one_connection_and_keeps_serving() {
        let (spawner, _) = failing_spawner("rtree-conn", 1);
        let handle =
            serve_with_spawner(Echo, "127.0.0.1:0", ServerConfig::default(), spawner).unwrap();

        // First connection: its handler thread fails to spawn; the server
        // refuses it with Overloaded (sent unprompted) and closes.
        let mut shed = Client::connect(handle.addr()).unwrap();
        match wire::recv_response(&mut shed.stream).unwrap() {
            Some(Response::Overloaded) => {}
            other => panic!("shed connection expected Overloaded, got {other:?}"),
        }
        drop(shed);

        // The accept loop survived: the next connection is served.
        let mut ok = Client::connect(handle.addr()).unwrap();
        match ok
            .call(&Request::Query(Rect::new(0.0, 0.0, 1.0, 1.0)))
            .unwrap()
        {
            Some(Response::Matches(ids)) => assert_eq!(ids, vec![1]),
            other => panic!("expected matches, got {other:?}"),
        }
        handle.shutdown();
    }
}
