//! The TCP front: accept loop, connection handlers, graceful shutdown.
//!
//! Threading: one accept thread plus a dedicated connection
//! [`WorkerPool`] of `max_connections` handlers, each of which calls the
//! engine itself. Connection handlers must **not** share the engine's pool
//! — a handler blocks on the engine's fan-out latch until engine-pool
//! workers open it; sharing would park the workers on the very latch they
//! are supposed to open.
//!
//! Shutdown protocol ([`Server::shutdown`]): set the stop flag; self-connect
//! to unblock `accept`; join the accept thread; drop the connection pool
//! (its `Drop` joins after handlers finish their current request — socket
//! read timeouts make them notice the flag within `read_timeout_ms`);
//! finally snapshot the engine. In-flight requests complete, new ones are
//! refused.

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use hd_core::pool::WorkerPool;
use hd_engine::Engine;
use minihttp::{read_request, Error as HttpError, Limits, Response};

use crate::config::ServerConfig;
use crate::limiter::RateLimiter;
use crate::metrics::ServerMetrics;
use crate::routes;

/// Everything a connection handler needs, shared across threads.
pub struct ServerState {
    pub engine: Arc<Engine>,
    pub limiter: RateLimiter,
    pub metrics: ServerMetrics,
    pub max_body_bytes: usize,
    pub(crate) stop: AtomicBool,
    pub(crate) read_timeout: Duration,
}

/// The running HTTP server. Bind with [`Server::bind`], stop with
/// [`Server::shutdown`] (graceful) or by dropping (best-effort, no final
/// snapshot).
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    pool: Option<Arc<WorkerPool>>,
    save_on_shutdown: bool,
}

impl Server {
    /// Binds and starts serving `engine` per `config`. The engine arrives
    /// in an `Arc` because handlers and the caller (who may keep querying it
    /// directly) share it.
    pub fn bind(engine: Arc<Engine>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState {
            engine,
            limiter: RateLimiter::new(config.rate_limit_qps, config.rate_limit_burst),
            metrics: ServerMetrics::new(),
            max_body_bytes: config.max_body_bytes,
            stop: AtomicBool::new(false),
            read_timeout: Duration::from_millis(config.read_timeout_ms.max(1)),
        });
        let pool = Arc::new(WorkerPool::new(config.max_connections));

        let accept = {
            let state = Arc::clone(&state);
            let pool = Arc::clone(&pool);
            std::thread::Builder::new()
                .name("hd-server-accept".to_string())
                .spawn(move || {
                    for (conn_id, stream) in listener.incoming().enumerate() {
                        if state.stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let state = Arc::clone(&state);
                        pool.submit(
                            conn_id,
                            Box::new(move || serve_connection(&state, stream)),
                        );
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(Server {
            addr,
            state,
            accept: Some(accept),
            pool: Some(pool),
            save_on_shutdown: config.save_on_shutdown,
        })
    }

    /// The actual bound address (resolves `:0` to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state — tests and benches read the metrics through it.
    pub fn state(&self) -> &ServerState {
        &self.state
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests, then
    /// snapshot the engine (when configured).
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop_serving();
        if self.save_on_shutdown {
            self.state.engine.save()?;
        }
        Ok(())
    }

    fn stop_serving(&mut self) {
        self.state.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(pool) = self.pool.take() {
            // The accept thread has dropped its clone; unwrapping yields the
            // pool whose Drop joins the handlers after they drain.
            match Arc::try_unwrap(pool) {
                Ok(pool) => drop(pool),
                Err(still_shared) => drop(still_shared),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best-effort: a dropped (not shut down) server still stops its
        // threads; it just skips the final snapshot.
        if self.accept.is_some() || self.pool.is_some() {
            self.stop_serving();
        }
    }
}

/// One connection's lifetime: keep-alive request loop until the peer
/// closes, an error makes the connection unusable, or shutdown begins.
fn serve_connection(state: &ServerState, stream: TcpStream) {
    let peer_ip = stream
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    if stream.set_read_timeout(Some(state.read_timeout)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let limits = Limits {
        max_body_bytes: state.max_body_bytes,
        ..Limits::default()
    };

    loop {
        if state.stop.load(Ordering::Acquire) {
            return;
        }
        match read_request(&mut reader, &limits) {
            Ok(None) => return,
            Ok(Some(request)) => {
                let response = routes::dispatch(state, &request, &peer_ip);
                // Requests in flight at shutdown still get their answer —
                // but on a closing connection, not a kept-alive one.
                let keep = request.keep_alive() && !state.stop.load(Ordering::Acquire);
                if response.write_to(&mut writer, keep).is_err() || !keep {
                    return;
                }
            }
            // Idle read timeout: wake, re-check the stop flag, keep
            // listening. (A peer that stalls mid-request loses the partial
            // bytes and will be answered 400 on resume — acceptable for a
            // timeout measured against entire small requests.)
            Err(HttpError::Io(e))
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                continue;
            }
            Err(HttpError::Io(_)) => return,
            Err(e) => {
                let response = protocol_error_response(&e);
                let _ = response.write_to(&mut writer, false);
                return;
            }
        }
    }
}

fn protocol_error_response(e: &HttpError) -> Response {
    match e {
        HttpError::TooLarge(msg) => routes::envelope(413, "payload_too_large", msg),
        HttpError::Unsupported(msg) => routes::envelope(501, "not_implemented", msg),
        HttpError::BadRequest(msg) => routes::envelope(400, "bad_request", msg),
        HttpError::Io(e) => routes::envelope(500, "internal", &e.to_string()),
    }
}
