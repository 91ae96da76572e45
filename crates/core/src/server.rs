//! The TCP front door: `legobase-wire-v3` over `std::net`, one
//! [`Session`](crate::Session) per connection, every connection a tenant of
//! the service's fair scheduler (DESIGN.md §3f).
//!
//! [`LegoBase::serve_tcp`] starts a [`QueryService`] and an accept loop;
//! each accepted connection gets its own thread, its own session (hence its
//! own tenant identity and weight in the pool's weighted deficit
//! round-robin), and runs the request/response loop until the client hangs
//! up. Failure discipline mirrors the in-process service: a bad query is a
//! typed error *frame* and the connection keeps serving; only protocol
//! violations (bad magic, corrupt frames) close the connection. Nothing a
//! client sends can panic the server thread — and if something deeper does,
//! the catch-all around the connection loop turns it into a dropped
//! connection, never a dead server.
//!
//! Each connection reads through its own 64 KiB `BufReader` and writes
//! through its own 64 KiB `BufWriter`: a request usually arrives in one read,
//! and a response (header, batches, end — or one error frame) is flushed
//! once, so a reply smaller than the buffer costs one write.
//!
//! Shutdown is graceful: [`TcpServer::shutdown`] stops accepting, lets every
//! connection finish the request it is serving (a connection checks the
//! shutdown flag only when its read buffer is empty, between requests), then
//! drains the service itself.

use crate::service::{QueryService, ServeOptions};
use crate::wire::{self, FrameKind, WireError};
use crate::{LegoBase, QueryError, QueryResponse};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often an idle connection (or the accept loop via its listener pokes)
/// re-checks the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(200);
/// Patience for the handshake and for each read inside a frame; a peer that
/// stalls longer mid-frame is treated as gone.
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);
/// Result rows per result-batch frame.
const BATCH_ROWS: usize = 1024;

struct ConnCount {
    n: Mutex<usize>,
    zero: Condvar,
}

struct Shared {
    service: QueryService,
    stop: AtomicBool,
    conns: ConnCount,
}

/// A running TCP server. Dropping it (or calling [`TcpServer::shutdown`])
/// stops the accept loop, drains connections and in-flight queries, and
/// joins every thread.
pub struct TcpServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl LegoBase {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port) and
    /// serves this database over `legobase-wire-v3` with the given service
    /// options. Results are bit-identical to the in-process surfaces for
    /// the same request.
    ///
    /// ```no_run
    /// use legobase::{LegoBase, ServeOptions};
    ///
    /// let server = LegoBase::generate(0.01)
    ///     .serve_tcp("127.0.0.1:4666", ServeOptions::default())
    ///     .expect("bind");
    /// println!("serving on {}", server.local_addr());
    /// // … later:
    /// server.shutdown();
    /// ```
    pub fn serve_tcp(
        self,
        addr: impl ToSocketAddrs,
        options: ServeOptions,
    ) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service: self.serve_with(options),
            stop: AtomicBool::new(false),
            conns: ConnCount { n: Mutex::new(0), zero: Condvar::new() },
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        Ok(TcpServer { shared, addr, accept: Some(accept) })
    }
}

impl TcpServer {
    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the underlying service's counters.
    pub fn stats(&self) -> crate::ServiceStats {
        self.shared.service.stats()
    }

    /// Stops accepting, waits for every connection to finish its in-flight
    /// request and disconnect, then shuts the service down (drains queries,
    /// joins the pool). Idempotent through [`Drop`].
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let Some(accept) = self.accept.take() else { return };
        self.shared.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); a self-connect wakes it so it
        // can observe the flag. The connect can race the listener closing —
        // either way the loop exits, so the result does not matter.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
        let mut n = self.shared.conns.n.lock().unwrap();
        while *n > 0 {
            n = self.shared.conns.zero.wait(n).unwrap();
        }
        drop(n);
        self.shared.service.shutdown();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        *shared.conns.n.lock().unwrap() += 1;
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            // A panic below would skip the count decrement and hang
            // shutdown; contain it (the connection dies, the server lives).
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = serve_connection(&stream, &shared);
                let _ = stream.shutdown(Shutdown::Both);
            }));
            let mut n = shared.conns.n.lock().unwrap();
            *n -= 1;
            if *n == 0 {
                shared.conns.zero.notify_all();
            }
        });
    }
}

/// The read side of a connection. The socket wakes every [`POLL_INTERVAL`];
/// between frames (`idle`) a wake-up or a read checks the stop flag, and a
/// stop reads as a clean end of stream. Inside a frame a read waits up to
/// [`FRAME_TIMEOUT`]: a peer that stalls longer mid-frame is treated as gone.
struct Incoming<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
    idle: bool,
}

impl Read for Incoming<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let start = Instant::now();
        loop {
            if self.idle && self.stop.load(Ordering::SeqCst) {
                return Ok(0);
            }
            match (&mut &*self.stream).read(buf) {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if !self.idle && start.elapsed() >= FRAME_TIMEOUT {
                        return Err(e);
                    }
                }
                done => return done,
            }
        }
    }
}

fn serve_connection(stream: &TcpStream, shared: &Shared) -> Result<(), WireError> {
    // Small frames answer point queries: without TCP_NODELAY, Nagle holds
    // the response back against the client's delayed ACK and every request
    // pays tens of milliseconds of idle wire time.
    stream.set_nodelay(true).ok();
    // Handshake under the frame timeout: a client that connects and says
    // nothing cannot pin the thread forever.
    stream.set_read_timeout(Some(FRAME_TIMEOUT))?;
    wire::server_handshake(&mut &*stream)?;
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let session = shared.service.session();
    let incoming = Incoming { stream, stop: &shared.stop, idle: false };
    let mut reader = BufReader::with_capacity(wire::IO_BUFFER, incoming);
    let mut writer = BufWriter::with_capacity(wire::IO_BUFFER, stream);
    loop {
        // Shutdown is noticed only between requests, and only once every
        // request already read has been answered.
        if reader.buffer().is_empty() {
            reader.get_mut().idle = true;
            let ended = reader.fill_buf()?.is_empty();
            reader.get_mut().idle = false;
            if ended {
                return Ok(());
            }
        }
        let request = match wire::read_frame(&mut reader) {
            Ok((FrameKind::Request, payload)) => match wire::decode_request(&payload) {
                Ok(req) => req,
                Err(e) => {
                    // The frame itself was sound, so framing is still in
                    // sync: answer with a protocol complaint and close (the
                    // client's next frame may be built on the same bug).
                    let _ = complain(&mut writer, &format!("undecodable request: {e}"));
                    return Err(e);
                }
            },
            Ok((kind, _)) => {
                let msg = format!("unexpected client frame {kind:?}");
                let _ = complain(&mut writer, &msg);
                return Err(WireError::Corrupt(msg));
            }
            // Corrupt / oversized / truncated framing: the stream position
            // is unknowable, so there is nothing sound left to write on.
            Err(e) => return Err(e),
        };
        // Typed query errors keep the connection serving — exactly the
        // in-process contract, one frame longer.
        write_response(&mut writer, session.query(&request))?;
    }
}

/// Writes a protocol complaint as one error frame.
fn complain(w: &mut impl Write, msg: &str) -> std::io::Result<()> {
    wire::write_frame(w, FrameKind::Error, &wire::encode_protocol_error(msg))?;
    w.flush()
}

/// Writes the answer to one request — header, batches and end, or one error
/// frame — and flushes once. Through the connection's `BufWriter` a reply
/// smaller than the buffer leaves in one write.
fn write_response(
    w: &mut impl Write,
    reply: Result<QueryResponse, QueryError>,
) -> std::io::Result<()> {
    match reply {
        Ok(resp) => {
            let header = wire::ResponseHeader {
                schema: resp.result.0.schema.clone(),
                rows: resp.result.0.rows.len() as u64,
                exec_time: resp.exec_time,
                total_time: resp.total_time,
                plan_cached: resp.plan_cached,
                prepared_cached: resp.prepared_cached,
                explanation: resp.explanation,
            };
            wire::write_frame(w, FrameKind::ResponseHeader, &wire::encode_header(&header))?;
            for chunk in resp.result.0.rows.chunks(BATCH_ROWS) {
                wire::write_batch(w, chunk)?;
            }
            wire::write_frame(w, FrameKind::ResponseEnd, &[])?;
        }
        Err(e) => wire::write_frame(w, FrameKind::Error, &wire::encode_error(&e))?,
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QueryRequest;
    use legobase_engine::ResultTable;
    use legobase_storage::{RowTable, Schema, Type, Value};

    /// A writer that counts the calls and bytes that reach it.
    #[derive(Default)]
    struct Counting {
        writes: usize,
        flushes: usize,
        bytes: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes += buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    fn response(rows: usize) -> QueryResponse {
        let schema = Schema::of(&[("c_custkey", Type::Int), ("c_name", Type::Str)]);
        let mut table = RowTable::with_capacity(schema, rows);
        table.rows.extend(
            (0..rows).map(|i| vec![Value::Int(i as i64), Value::Str(format!("Customer#{i:09}"))]),
        );
        QueryResponse {
            result: ResultTable(table),
            exec_time: Duration::from_micros(100),
            total_time: Duration::from_micros(150),
            plan_cached: true,
            prepared_cached: true,
            opt: None,
            explanation: None,
            plan: None,
            detail: None,
            structures: Vec::new(),
            env: None,
        }
    }

    /// What `write_response` hands the socket through the connection's
    /// buffered writer.
    fn written(reply: Result<QueryResponse, QueryError>) -> Counting {
        let mut sink = Counting::default();
        let mut writer = BufWriter::with_capacity(wire::IO_BUFFER, &mut sink);
        write_response(&mut writer, reply).unwrap();
        drop(writer);
        sink
    }

    #[test]
    fn a_response_is_flushed_once_in_buffer_sized_writes() {
        let sink = written(Ok(response(2 * BATCH_ROWS + 452)));
        assert!(sink.bytes > wire::IO_BUFFER, "three batches of ~30 KB span two buffers");
        assert!(
            sink.writes <= sink.bytes.div_ceil(wire::IO_BUFFER),
            "{} writes for {} bytes",
            sink.writes,
            sink.bytes
        );
        assert_eq!(sink.flushes, 1);
        // A one-row reply and an error reply leave in one write each.
        for reply in [Ok(response(1)), Err(QueryError::ShuttingDown)] {
            let sink = written(reply);
            assert_eq!((sink.writes, sink.flushes), (1, 1));
        }
    }

    #[test]
    fn a_request_frame_is_one_write() {
        let payload = wire::encode_request(&QueryRequest::sql("SELECT 1")).unwrap();
        let mut sink = Counting::default();
        wire::write_frame(&mut sink, FrameKind::Request, &payload).unwrap();
        assert_eq!((sink.writes, sink.flushes, sink.bytes), (1, 0, payload.len() + 13));
    }
}
