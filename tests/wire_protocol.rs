//! Adversarial coverage of `legobase-wire-v3` (DESIGN.md §3f): a server
//! facing malformed frames, truncated streams, version skew, and mid-query
//! disconnects must answer with typed errors or clean closes — never a
//! panic, and never a wedged accept loop. After every abuse the same server
//! must keep serving well-behaved clients.

use legobase::client::{Client, ClientError};
use legobase::wire::{self, FrameKind, WireError, MAGIC, MAX_FRAME, VERSION};
use legobase::{LegoBase, QueryError, QueryRequest, ServeOptions};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const SCALE: f64 = 0.002;

fn server() -> legobase::server::TcpServer {
    LegoBase::generate(SCALE)
        .serve_tcp("127.0.0.1:0", ServeOptions::default().with_workers(2))
        .expect("bind ephemeral port")
}

/// The server still answers a clean request — the liveness probe every
/// abuse scenario ends with.
fn assert_still_serving(server: &legobase::server::TcpServer) {
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let resp = client
        .run(&QueryRequest::sql("SELECT count(*) AS n FROM lineitem"))
        .expect("server must keep serving after client misbehavior");
    assert_eq!(resp.result.rows().len(), 1);
}

/// Version skew is refused with the server's version — including v1, whose
/// frames would all read as corrupt under v2's checksum.
#[test]
fn version_mismatch_is_typed_and_connection_refused() {
    assert_eq!(VERSION, 3);
    let server = server();
    for peer in [1u32, 2, 99] {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&MAGIC).unwrap();
        raw.write_all(&peer.to_le_bytes()).unwrap();
        let mut reply = [0u8; 8];
        raw.read_exact(&mut reply).unwrap();
        assert_eq!([reply[0], reply[1], reply[2], reply[3]], *b"LBER", "peer v{peer}");
        assert_eq!(u32::from_le_bytes([reply[4], reply[5], reply[6], reply[7]]), VERSION);
        // The server closed after the refusal.
        let mut probe = [0u8; 1];
        assert_eq!(raw.read(&mut probe).unwrap_or(0), 0, "connection must be closed");
    }
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn bad_magic_closes_the_connection() {
    let server = server();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(b"HTTP/1.1").unwrap();
    let mut probe = [0u8; 16];
    assert_eq!(raw.read(&mut probe).unwrap_or(0), 0, "non-protocol bytes get a silent close");
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn oversized_frame_is_rejected_without_allocation_or_panic() {
    let server = server();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    wire::client_handshake(&mut raw).unwrap();
    let mut frame = vec![1u8]; // Request kind
    frame.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
    raw.write_all(&frame).unwrap();
    let mut probe = [0u8; 1];
    assert_eq!(raw.read(&mut probe).unwrap_or(0), 0, "oversized frame closes the connection");
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn corrupt_checksum_closes_the_connection() {
    let server = server();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    wire::client_handshake(&mut raw).unwrap();
    let payload =
        wire::encode_request(&QueryRequest::sql("SELECT count(*) AS n FROM lineitem")).unwrap();
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, FrameKind::Request, &payload).unwrap();
    let mid = 1 + 4 + payload.len() / 2;
    frame[mid] ^= 0x10; // flip a payload bit: checksum must catch it
    raw.write_all(&frame).unwrap();
    let mut probe = [0u8; 1];
    assert_eq!(raw.read(&mut probe).unwrap_or(0), 0);
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn truncated_frame_then_disconnect_is_survived() {
    let server = server();
    {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        wire::client_handshake(&mut raw).unwrap();
        let payload =
            wire::encode_request(&QueryRequest::sql("SELECT count(*) AS n FROM lineitem")).unwrap();
        let mut frame = Vec::new();
        wire::write_frame(&mut frame, FrameKind::Request, &payload).unwrap();
        raw.write_all(&frame[..frame.len() / 2]).unwrap();
        // Hang up mid-frame: the server sees unexpected EOF, reclaims the
        // session, and keeps serving.
    }
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn mid_query_disconnect_reclaims_the_session() {
    let server = server();
    {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        wire::client_handshake(&mut raw).unwrap();
        // A full, valid request — then vanish before reading the response.
        let payload = wire::encode_request(&QueryRequest::sql(legobase::sql::tpch_sql(1))).unwrap();
        wire::write_frame(&mut raw, FrameKind::Request, &payload).unwrap();
    }
    // The server may discover the disconnect only when writing results;
    // either way the connection thread exits and new clients are served.
    assert_still_serving(&server);
    let stats = server.stats();
    assert_eq!(stats.queries_panicked, 0, "a disconnect is not a panic");
    server.shutdown();
}

#[test]
fn unexpected_frame_kind_gets_a_protocol_error_frame() {
    let server = server();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    wire::client_handshake(&mut raw).unwrap();
    // A well-formed frame of a kind only servers send.
    wire::write_frame(&mut raw, FrameKind::ResponseEnd, &[]).unwrap();
    let (kind, payload) = wire::read_frame(&mut raw).expect("server answers before closing");
    assert_eq!(kind, FrameKind::Error);
    assert!(matches!(wire::decode_error(&payload), Err(WireError::Remote(_))));
    assert_still_serving(&server);
    server.shutdown();
}

#[test]
fn sql_error_spans_survive_the_wire() {
    let sys = LegoBase::generate(SCALE);
    let bad = "SELECT count(*) AS n FROM lineitm";
    let local = match sys.query(&QueryRequest::sql(bad)) {
        Err(QueryError::Sql(e)) => e,
        other => panic!("expected SQL error, got {:?}", other.map(|_| "ok")),
    };
    let server = LegoBase::generate(SCALE)
        .serve_tcp("127.0.0.1:0", ServeOptions::default().with_workers(2))
        .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.run(&QueryRequest::sql(bad)) {
        Err(ClientError::Query(QueryError::Sql(e))) => {
            assert_eq!(e.message, local.message);
            assert_eq!(e.span, local.span, "the caret span crosses the wire intact");
        }
        other => panic!("expected typed SQL error over the wire, got {:?}", other.map(|_| "ok")),
    }
    // The connection is still usable after a query error.
    let resp = client.run(&QueryRequest::sql("SELECT count(*) AS n FROM lineitem")).unwrap();
    assert_eq!(resp.result.rows().len(), 1);
    server.shutdown();
}

#[test]
fn budgets_and_deadlines_are_typed_over_the_wire() {
    let server = server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.run(&QueryRequest::sql(legobase::sql::tpch_sql(1)).with_memory_budget(16)) {
        Err(ClientError::Query(QueryError::OverBudget {
            estimated_bytes, budget_bytes, ..
        })) => {
            assert!(estimated_bytes > budget_bytes);
            assert_eq!(budget_bytes, 16);
        }
        other => panic!("expected OverBudget, got {:?}", other.map(|_| "ok")),
    }
    match client
        .run(&QueryRequest::sql(legobase::sql::tpch_sql(1)).with_deadline(Duration::from_nanos(1)))
    {
        Err(ClientError::Query(QueryError::DeadlineExceeded { deadline, .. })) => {
            assert_eq!(deadline, Duration::from_nanos(1));
        }
        other => panic!("expected DeadlineExceeded, got {:?}", other.map(|_| "ok")),
    }
    // Same connection, same session: a generous deadline completes fine.
    let resp = client
        .run(&QueryRequest::sql(legobase::sql::tpch_sql(6)).with_deadline(Duration::from_secs(120)))
        .expect("generous deadline completes");
    assert!(!resp.result.rows().is_empty());
    server.shutdown();
}

#[test]
fn explain_crosses_the_wire_without_rows() {
    let server = server();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let resp = client
        .run(&QueryRequest::sql(legobase::sql::tpch_sql(6)).with_explain(true))
        .expect("explain over the wire");
    let rendered = resp.explanation.expect("explain responses carry the SQL rendering");
    assert!(rendered.to_uppercase().contains("SELECT"));
    assert!(resp.result.rows().is_empty(), "explain executes nothing");
    server.shutdown();
}

#[test]
fn graceful_shutdown_drains_then_refuses() {
    let server = server();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let resp = client.run(&QueryRequest::sql("SELECT count(*) AS n FROM lineitem")).unwrap();
    assert_eq!(resp.result.rows().len(), 1);
    server.shutdown();
    // After shutdown the port no longer completes the handshake: either the
    // connect itself fails or the handshake read hits EOF.
    let refused = match TcpStream::connect(addr) {
        Err(_) => true,
        Ok(mut raw) => wire::client_handshake(&mut raw).is_err(),
    };
    assert!(refused, "a shut-down server must not admit new conversations");
}

/// The client is a boundary too: a response header is a wire integer, and a
/// server announcing `u64::MAX` rows must get a typed `Corrupt` (announced
/// vs delivered) out of `Client::run` — not a capacity-overflow abort
/// before the first batch arrives.
#[test]
fn lying_row_count_is_a_typed_error_on_the_client() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let fake_server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        wire::server_handshake(&mut stream).expect("handshake");
        let (kind, _) = wire::read_frame(&mut stream).expect("request frame");
        assert_eq!(kind, FrameKind::Request);
        let header = wire::ResponseHeader {
            schema: legobase::storage::Schema::of(&[("n", legobase::storage::Type::Int)]),
            rows: u64::MAX,
            exec_time: Duration::ZERO,
            total_time: Duration::ZERO,
            plan_cached: false,
            prepared_cached: false,
            explanation: None,
        };
        wire::write_frame(&mut stream, FrameKind::ResponseHeader, &wire::encode_header(&header))
            .expect("header");
        wire::write_frame(&mut stream, FrameKind::ResponseEnd, &[]).expect("end");
    });
    let mut client = Client::connect(addr).expect("connect");
    match client.run(&QueryRequest::sql("SELECT count(*) AS n FROM lineitem")) {
        Err(ClientError::Wire(WireError::Corrupt(m))) => {
            assert!(m.contains("announced") && m.contains("delivered 0"), "{m}")
        }
        Err(e) => panic!("expected a typed Corrupt, got {e}"),
        Ok(_) => panic!("a header announcing rows that never arrive must not pass"),
    }
    fake_server.join().expect("fake server");
}

/// A fake server that answers one request with a one-column header and then
/// `batch` — a result the client must check against the header's schema.
fn client_run_against(batch: Vec<legobase::storage::Tuple>) -> Result<(), ClientError> {
    use legobase::storage::{Schema, Type};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let fake_server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        wire::server_handshake(&mut stream).expect("handshake");
        let (kind, _) = wire::read_frame(&mut stream).expect("request frame");
        assert_eq!(kind, FrameKind::Request);
        let header = wire::ResponseHeader {
            schema: Schema::of(&[("n", Type::Int)]),
            rows: batch.len() as u64,
            exec_time: Duration::ZERO,
            total_time: Duration::ZERO,
            plan_cached: false,
            prepared_cached: false,
            explanation: None,
        };
        wire::write_frame(&mut stream, FrameKind::ResponseHeader, &wire::encode_header(&header))
            .expect("header");
        wire::write_frame(&mut stream, FrameKind::ResultBatch, &wire::encode_batch(&batch))
            .expect("batch");
        wire::write_frame(&mut stream, FrameKind::ResponseEnd, &[]).expect("end");
    });
    let mut client = Client::connect(addr).expect("connect");
    let result = client.run(&QueryRequest::sql("SELECT count(*) AS n FROM lineitem")).map(drop);
    fake_server.join().expect("fake server");
    result
}

/// The client checks every batch against the header's schema: a batch of
/// the wrong arity or with a value of the wrong type is a typed `Corrupt`,
/// not a `RowTable` that panics when a caller indexes it.
#[test]
fn a_batch_that_does_not_fit_the_header_is_a_typed_error_on_the_client() {
    use legobase::storage::Value;
    for (batch, expect) in [
        (vec![vec![Value::Int(1), Value::Int(2)]], "2 values"),
        (vec![vec![Value::Str("1".into())]], "Str"),
    ] {
        match client_run_against(batch) {
            Err(ClientError::Wire(WireError::Corrupt(m))) => assert!(m.contains(expect), "{m}"),
            Err(e) => panic!("expected a typed Corrupt, got {e}"),
            Ok(()) => panic!("a batch that does not fit the header's schema must not pass"),
        }
    }
    // NULL fits any column, and a well-formed batch passes.
    client_run_against(vec![vec![Value::Null], vec![Value::Int(7)]]).expect("fitting batch");
}
