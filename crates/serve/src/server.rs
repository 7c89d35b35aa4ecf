//! The transport loop: accept connections, frame one request each, hand
//! it to [`crate::handlers::handle`], write the response back.
//!
//! The listener blocks in `accept`, so a request is answered as soon as
//! it arrives. Shutdown needs no self-pipe or signal plumbing here:
//! whoever owns the [`CancelToken`] (the CLI's signal watcher, a test)
//! cancels it, a helper thread inside [`Server::run`] sees that on its
//! next check and wakes the `accept` with one loopback connect, and
//! [`Server::run`] returns.

use crate::handlers;
use crate::http::{Request, Response};
use crate::service::SchedulerService;
use hetsched_core::{CancelToken, ErrorClass};
use std::io::{self, BufReader};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

/// How often [`Server::run`]'s helper checks the shutdown token: the
/// cadence of the CLI's signal watcher, which sets the token. No request
/// waits on it.
const SHUTDOWN_CHECK: Duration = Duration::from_millis(50);

/// Per-connection socket budget — a stalled client cannot wedge a
/// connection thread forever.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

/// A bound, not-yet-running HTTP server.
pub struct Server {
    listener: TcpListener,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7878`; port 0 picks an ephemeral
    /// port, see [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Any bind failure from the OS.
    pub fn bind(addr: &str) -> io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The actually-bound address.
    ///
    /// # Errors
    ///
    /// Propagates the OS query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `shutdown` is cancelled, returning within about
    /// 50 ms of the cancel. Each accepted connection is handled on its
    /// own short-lived thread (one request, one response,
    /// `Connection: close`), so a slow request never blocks the accept
    /// loop or the other endpoints.
    ///
    /// # Errors
    ///
    /// A non-transient accept failure, or the OS query for the bound
    /// address; individual connection errors are logged and dropped.
    pub fn run(&self, service: &SchedulerService, shutdown: &CancelToken) -> io::Result<()> {
        let wake = wake_addr(self.listener.local_addr()?);
        let stopped = AtomicBool::new(false);
        thread::scope(|scope| {
            scope.spawn(|| wake_on_cancel(wake, shutdown, &stopped));
            let served = self.accept_until(service, shutdown);
            stopped.store(true, Ordering::SeqCst);
            served
        })
    }

    fn accept_until(&self, service: &SchedulerService, shutdown: &CancelToken) -> io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok(_) if shutdown.is_cancelled() => return Ok(()),
                Ok((stream, _peer)) => {
                    let service = service.clone();
                    thread::spawn(move || handle_connection(&service, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Where a loopback connect reaches a listener bound to `bound`: the
/// address itself, or the loopback address of its family when it is the
/// unspecified `0.0.0.0` or `[::]`.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Checks `shutdown` every [`SHUTDOWN_CHECK`] until the accept loop has
/// `stopped`; once it is cancelled, connects to `wake` so the blocked
/// `accept` returns and sees the token. A failed connect is retried at
/// the next check.
fn wake_on_cancel(wake: SocketAddr, shutdown: &CancelToken, stopped: &AtomicBool) {
    while !stopped.load(Ordering::SeqCst) {
        if shutdown.is_cancelled() {
            match TcpStream::connect_timeout(&wake, SOCKET_TIMEOUT) {
                Ok(_) => return,
                Err(e) => tracing::warn!("cannot wake the accept loop at {wake}: {e}"),
            }
        }
        thread::sleep(SHUTDOWN_CHECK);
    }
}

fn handle_connection(service: &SchedulerService, stream: TcpStream) {
    if stream.set_read_timeout(Some(SOCKET_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(SOCKET_TIMEOUT)).is_err()
    {
        return;
    }
    let response = match Request::read_from(BufReader::new(&stream)) {
        Ok(request) => {
            // Each request gets its own trace root; these spans land in
            // the mux's default writer (jobs run asynchronously under
            // their own roots, so request spans measure only dispatch).
            let mut request_span =
                tracing::Span::root(tracing::Level::DEBUG, module_path!(), "request");
            if request_span.is_enabled() {
                request_span.record("method", request.method.clone());
                request_span.record("path", request.path.clone());
            }
            let _in_request = request_span.enter();
            handlers::handle(service, &request)
        }
        Err(e) => Response::json(
            400,
            &crate::wire::ErrorBody::new(ErrorClass::InvalidInput, format!("bad request: {e}")),
        ),
    };
    if let Err(e) = response.write_to(&stream) {
        tracing::debug!("dropping response: {e}");
    }
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use std::sync::mpsc;

    /// Runs a server bound to `addr` with no client traffic, cancels its
    /// token, and asserts that `run` returns within a second.
    fn run_returns_soon_after_cancel(addr: &str, tag: &str) {
        let dir =
            std::env::temp_dir().join(format!("hetsched-server-{tag}-{}", std::process::id()));
        let service = SchedulerService::start(ServeConfig::new(&dir)).unwrap();
        let server = Server::bind(addr).unwrap();
        let shutdown = CancelToken::new();
        let (returned_tx, returned) = mpsc::channel();
        let accept = {
            let (service, shutdown) = (service.clone(), shutdown.clone());
            thread::spawn(move || {
                let served = server.run(&service, &shutdown);
                let _ = returned_tx.send(());
                served
            })
        };
        // Give the loop time to block in `accept` before the cancel.
        thread::sleep(Duration::from_millis(100));
        assert!(
            returned.try_recv().is_err(),
            "run returned before the cancel"
        );
        shutdown.cancel();
        returned
            .recv_timeout(Duration::from_secs(1))
            .expect("run returns within 1 s of the cancel");
        accept.join().unwrap().unwrap();
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_returns_after_cancel_on_a_loopback_listener() {
        run_returns_soon_after_cancel("127.0.0.1:0", "loopback");
    }

    #[test]
    fn run_returns_after_cancel_on_an_unspecified_listener() {
        run_returns_soon_after_cancel("0.0.0.0:0", "unspecified");
    }

    #[test]
    fn the_wake_connect_targets_loopback_for_unspecified_binds() {
        for (bound, wake) in [
            ("0.0.0.0:7878", "127.0.0.1:7878"),
            ("[::]:7878", "[::1]:7878"),
            ("127.0.0.1:7878", "127.0.0.1:7878"),
            ("[::1]:7878", "[::1]:7878"),
            ("10.1.2.3:80", "10.1.2.3:80"),
        ] {
            assert_eq!(
                wake_addr(bound.parse().unwrap()),
                wake.parse::<SocketAddr>().unwrap()
            );
        }
    }
}
