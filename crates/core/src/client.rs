//! Blocking `legobase-wire-v3` client (DESIGN.md §3f).
//!
//! [`Client`] is the reference consumer of the wire protocol: the
//! loopback-equivalence suite drives all 22 TPC-H queries through it and
//! compares bytes against the in-process surfaces, and `figures -- serve
//! --tcp` uses it to measure the TCP front door's throughput. It is
//! deliberately minimal — `std::net::TcpStream`, one in-flight request per
//! connection, no pooling — because the protocol, not the client, is the
//! contract.
//!
//! ```no_run
//! use legobase::client::Client;
//! use legobase::QueryRequest;
//!
//! let mut client = Client::connect("127.0.0.1:4666")?;
//! let resp = client.run(&QueryRequest::sql("SELECT count(*) AS n FROM lineitem"))?;
//! println!("{}", resp.result.display(10));
//! # Ok::<(), legobase::client::ClientError>(())
//! ```

use crate::request::{QueryError, QueryResponse};
use crate::wire::{self, FrameKind, WireError};
use crate::QueryRequest;
use legobase_engine::ResultTable;
use legobase_storage::{RowTable, Schema, Tuple, Type, Value};
use std::fmt;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Instant;

/// Why a client call failed: a transport/protocol problem, or the server's
/// *typed* query error carried back whole over the error frame.
#[derive(Debug)]
pub enum ClientError {
    /// The conversation itself broke (socket, framing, version, checksums).
    Wire(WireError),
    /// The server declined or failed the query — the same [`QueryError`]
    /// an in-process caller would have matched, spans and all.
    Query(QueryError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Query(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Wire(e) => Some(e),
            ClientError::Query(e) => Some(e),
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Wire(WireError::Io(e))
    }
}

/// Rows reserved up front on the word of a response header. The count is a
/// wire integer: a larger result grows as its batches actually arrive, so a
/// header cannot force a huge allocation.
const MAX_RESERVED_ROWS: u64 = 1 << 16;

/// A batch must have the header's shape: every row of the schema's arity,
/// every value NULL or of its field's type. Anything else would become a
/// `RowTable` that panics when a caller indexes it.
fn check_batch(schema: &Schema, rows: &[Tuple]) -> Result<(), WireError> {
    for row in rows {
        if row.len() != schema.len() {
            return Err(WireError::Corrupt(format!(
                "batch row has {} values, header schema has {} fields",
                row.len(),
                schema.len()
            )));
        }
        for (value, field) in row.iter().zip(&schema.fields) {
            let fits = matches!(
                (value, field.ty),
                (Value::Null, _)
                    | (Value::Int(_), Type::Int)
                    | (Value::Float(_), Type::Float)
                    | (Value::Str(_), Type::Str)
                    | (Value::Date(_), Type::Date)
                    | (Value::Bool(_), Type::Bool)
            );
            if !fits {
                return Err(WireError::Corrupt(format!(
                    "batch value {value:?} in {} column `{}`",
                    field.ty, field.name
                )));
            }
        }
    }
    Ok(())
}

/// A blocking connection to a [`TcpServer`](crate::server::TcpServer).
/// Requests go out in one write each; responses are read through a 64 KiB
/// buffer, so a small reply costs one read.
pub struct Client {
    stream: BufReader<TcpStream>,
}

impl Client {
    /// Connects and performs the version handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let mut stream = TcpStream::connect(addr).map_err(WireError::Io)?;
        stream.set_nodelay(true).ok();
        wire::client_handshake(&mut stream)?;
        Ok(Client { stream: BufReader::with_capacity(wire::IO_BUFFER, stream) })
    }

    /// Runs one request and collects the full response. Plan-kind requests
    /// must be rendered to SQL first ([`QueryRequest::rendered`]); the
    /// encoder returns a typed error otherwise.
    ///
    /// [`QueryResponse::total_time`] is measured client-side (network
    /// included); [`QueryResponse::exec_time`] is the server's measurement
    /// from the response header.
    pub fn run(&mut self, request: &QueryRequest) -> Result<QueryResponse, ClientError> {
        let t0 = Instant::now();
        let payload = wire::encode_request(request)?;
        wire::write_frame(self.stream.get_mut(), FrameKind::Request, &payload)
            .map_err(WireError::Io)?;

        let header = match wire::read_frame(&mut self.stream)? {
            (FrameKind::ResponseHeader, p) => wire::decode_header(&p)?,
            (FrameKind::Error, p) => return Err(ClientError::Query(wire::decode_error(&p)?)),
            (kind, _) => {
                return Err(WireError::Corrupt(format!("expected header, got {kind:?}")).into())
            }
        };
        let reserved = header.rows.min(MAX_RESERVED_ROWS) as usize;
        let mut table = RowTable::with_capacity(header.schema.clone(), reserved);
        loop {
            match wire::read_frame(&mut self.stream)? {
                (FrameKind::ResultBatch, p) => {
                    let rows = wire::decode_batch(&p)?;
                    check_batch(&header.schema, &rows)?;
                    table.rows.extend(rows);
                }
                (FrameKind::ResponseEnd, _) => break,
                (FrameKind::Error, p) => return Err(ClientError::Query(wire::decode_error(&p)?)),
                (kind, _) => {
                    return Err(
                        WireError::Corrupt(format!("expected batch or end, got {kind:?}")).into()
                    )
                }
            }
        }
        if table.rows.len() as u64 != header.rows {
            return Err(WireError::Corrupt(format!(
                "header announced {} rows, stream delivered {}",
                header.rows,
                table.rows.len()
            ))
            .into());
        }
        Ok(QueryResponse {
            result: ResultTable(table),
            exec_time: header.exec_time,
            total_time: t0.elapsed(),
            plan_cached: header.plan_cached,
            prepared_cached: header.prepared_cached,
            opt: None,
            explanation: header.explanation,
            plan: None,
            detail: None,
            structures: Vec::new(),
            env: None,
        })
    }
}
