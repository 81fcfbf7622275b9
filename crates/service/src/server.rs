//! The TCP front end.
//!
//! [`TcpServer::bind`] accepts connections on a [`std::net::TcpListener`]
//! and hands each accepted stream to the event-driven connection plane
//! ([`conn`](crate::conn)): a small fixed pool of I/O threads, each
//! multiplexing thousands of nonblocking connections under a
//! [`poller::Poller`] readiness loop. Requests flow into the engine's
//! non-blocking submission path and responses flow back through
//! per-thread completion mailboxes, so the socket layer adds no
//! per-connection threads and a TCP client still observes byte-identical
//! results to an in-process [`LocalClient`](crate::LocalClient).
//!
//! Encode frames carry a request id and may be submitted concurrently;
//! their responses are matched by id, not arrival order. Framing-level
//! protocol violations (bad magic, wrong version, oversized header) are
//! answered with a [`BadRequest`](crate::wire::ErrorCode::BadRequest)
//! error frame and the connection closes once it flushes; a well-framed
//! body that fails to decode also gets `BadRequest` (under the request's
//! id when it has a readable one) but the connection stays open. A
//! connection that stops draining its responses is dropped with a typed
//! [`SlowConsumer`](crate::wire::ErrorCode::SlowConsumer) frame once its
//! write buffer crosses the configured high-watermark
//! ([`ConnConfig::write_high_watermark`]).

use crate::conn::{ConnConfig, ConnPlane, Inbox};
use crate::engine::Engine;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running TCP front end over an [`Engine`].
///
/// Dropping the server (or calling [`TcpServer::shutdown`]) stops the
/// accept loop, then stops and joins every I/O thread — each closes all
/// the connections it multiplexes on the way out, so shutdown is
/// deterministic. The engine itself keeps running — it is shared, and
/// may be fronted by several servers or used in-process at the same
/// time.
#[derive(Debug)]
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    plane: ConnPlane,
}

impl TcpServer {
    /// Binds a listener (use port 0 for an OS-assigned port, retrievable
    /// via [`TcpServer::addr`]) and starts accepting connections with the
    /// default [`ConnConfig`].
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from binding the listener or starting the
    /// connection plane.
    pub fn bind(engine: &Engine, addr: impl ToSocketAddrs) -> io::Result<TcpServer> {
        TcpServer::bind_with(engine, addr, ConnConfig::default())
    }

    /// [`TcpServer::bind`] with an explicit connection-plane
    /// configuration (I/O thread count, buffer high-watermarks, and the
    /// pipelining window).
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from binding the listener or starting the
    /// connection plane.
    pub fn bind_with(
        engine: &Engine,
        addr: impl ToSocketAddrs,
        config: ConnConfig,
    ) -> io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let plane = ConnPlane::start(engine, config)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            let inboxes = plane.inboxes();
            std::thread::Builder::new()
                .name("dbi-accept".to_owned())
                .spawn(move || accept_loop(&listener, &stop, &inboxes))?
        };
        Ok(TcpServer {
            addr: local,
            stop,
            accept: Some(accept),
            plane,
        })
    }

    /// The address the server is listening on.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes every multiplexed connection and joins
    /// the accept thread and every I/O thread.
    pub fn shutdown(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway loopback connection
        // (reaching the listener even when it is bound to 0.0.0.0). If
        // even that fails, leak the accept thread rather than deadlock
        // the caller in join().
        let woke = TcpStream::connect(("127.0.0.1", self.addr.port())).is_ok();
        if let Some(accept) = self.accept.take() {
            if woke {
                let _ = accept.join();
            }
        }
        self.plane.shutdown();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.stop_now();
    }
}

/// The accept loop: blocking accept(2), round-robin hand-off of each
/// stream to an I/O thread's inbox. All protocol work happens on the I/O
/// threads.
fn accept_loop(listener: &TcpListener, stop: &Arc<AtomicBool>, inboxes: &[Arc<Inbox>]) {
    let mut next = 0usize;
    for incoming in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = incoming else { continue };
        let _ = stream.set_nodelay(true);
        inboxes[next % inboxes.len()].push_conn(stream);
        next = next.wrapping_add(1);
    }
}
