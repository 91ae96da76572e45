//! The layer walk of the traced pass: after the measured configuration has
//! been torn down, the harness opens the archive again and calls each layer
//! itself, through public functions only, with a clock around every call.
//!
//! The walk does, stage by stage, what one cache-missing request does inside
//! the service (`sql::plan` → `optimizer::optimize` → `LegoBase::load`, which
//! is `sc::compile` then the database load → `LoadedQuery::execute`) with the
//! wire encode/decode a TCP request would add on either side; then it probes
//! the layers no staged request isolates (morsel pool, packed storage, frame
//! codec, service hit path, socket transport).

use crate::stats;
use crate::templates::{template_index, TEMPLATES};
use crate::trace::Tracer;
use crate::workload::{Schedule, Workload};
use legobase::engine::{optimizer, Plan, QueryPlan};
use legobase::storage::Tuple;
use legobase::wire::{self, FrameKind, ResponseHeader};
use legobase::{LegoBase, QueryRequest, ServeOptions};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Cursor;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Staged requests walked per run, at most (each pays a database load).
const MAX_STAGED: usize = 48;
/// Warm repetitions per text in the service and socket probes.
const PROBE_REPS: usize = 10;
/// Bytes a frame adds around its payload: kind, length, checksum.
const FRAME_OVERHEAD: usize = 1 + 4 + 8;

/// What the walk measured.
pub struct Walk {
    /// Per-layer metric values, by metric name.
    pub metrics: BTreeMap<String, f64>,
    /// Spans of the staged requests.
    pub tracer: Tracer,
    /// Base-table rows (catalog statistics) the plan of each template slot
    /// of the workload's mix scans.
    pub base_rows: Vec<f64>,
    /// Warm in-process median latency (ms, of [`PROBE_REPS`] samples) of
    /// every template's first variant, indexed like [`TEMPLATES`].
    pub side_p50_ms: Vec<f64>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Instant, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start, start.elapsed())
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Rows of the base tables a plan scans, from the catalog's statistics.
fn base_rows(plan: &QueryPlan, system: &LegoBase) -> f64 {
    let mut rows = 0usize;
    for p in plan.plans() {
        p.walk(&mut |n| {
            if let Plan::Scan { table } = n {
                if !table.starts_with('#') {
                    rows += system.data.catalog.stats(table).map_or(0, |s| s.rows);
                }
            }
        });
    }
    rows as f64
}

fn response_header(result: &legobase::ResultTable, exec: Duration) -> ResponseHeader {
    ResponseHeader {
        schema: result.0.schema.clone(),
        rows: result.len() as u64,
        exec_time: exec,
        total_time: exec,
        plan_cached: false,
        prepared_cached: false,
        explanation: None,
    }
}

/// Encodes a result the way the server does (header, 1024-row batches) and
/// decodes it the way the client does. Returns the encoded bytes, frame
/// overhead included, and the two durations.
fn wire_result(
    rows: &[Tuple],
    header: &ResponseHeader,
) -> Result<(usize, Duration, Duration), String> {
    let (frames, _, encode) = timed(|| {
        let mut frames = vec![wire::encode_header(header)];
        frames.extend(rows.chunks(1024).map(wire::encode_batch));
        frames
    });
    let (decoded, _, decode) = timed(|| -> Result<usize, wire::WireError> {
        let mut n = wire::decode_header(&frames[0])?.rows as usize;
        for f in &frames[1..] {
            n -= wire::decode_batch(f)?.len();
        }
        Ok(n)
    });
    if decoded.map_err(|e| e.to_string())? != 0 {
        return Err("decoded batches do not add up to the header's row count".into());
    }
    // Header, batches and the empty end frame.
    let bytes = frames.iter().map(|f| f.len() + FRAME_OVERHEAD).sum::<usize>() + FRAME_OVERHEAD;
    Ok((bytes, encode, decode))
}

/// Counts and sizes a staged request yields besides its spans.
#[derive(Default)]
struct StagedTotals {
    requests: f64,
    qerror_ln: f64,
    reordered: f64,
    cgen: Duration,
    c_bytes: f64,
    resident_bytes: f64,
    base_rows: f64,
    result_bytes: f64,
}

/// Walks one request through the layers, recording a span per stage.
fn staged_request(
    system: &LegoBase,
    tracer: &mut Tracer,
    text: usize,
    sql: &str,
    totals: &mut StagedTotals,
) -> Result<f64, String> {
    let catalog = &system.data.catalog;
    let request = QueryRequest::sql(sql);
    let begin = Instant::now();
    let root = tracer.request(text, begin);

    let (payload, at, d) = timed(|| wire::encode_request(&request));
    let payload = payload.map_err(|e| e.to_string())?;
    tracer.child(root, "wire.encode_request", at, d);
    let (decoded, at, d) = timed(|| wire::decode_request(&payload));
    let request = decoded.map_err(|e| e.to_string())?;
    tracer.child(root, "wire.decode_request", at, d);

    let (key, at, d) = timed(|| legobase::sql::cache_text(sql));
    black_box(key);
    tracer.child(root, "sql.cache_text", at, d);
    let (lowered, at, d) = timed(|| legobase::sql::plan(sql, catalog));
    let lowered = lowered.map_err(|e| e.render(sql))?;
    tracer.child(root, "sql.plan", at, d);
    let ((plan, report), at, d) = timed(|| optimizer::optimize(&lowered, catalog));
    tracer.child(root, "optimizer.optimize", at, d);

    // `LegoBase::load` is the SC compile followed by the database load; the
    // load reports its own duration, which splits the span in two.
    let (loaded, at, d) = timed(|| system.load(&plan, request.settings()));
    let load = loaded.load_report().duration.min(d);
    let compile = d - load;
    let cgen = loaded.compilation.cgen_time.min(compile);
    let core_load = tracer.child(root, "core.load", at, d);
    let sc = tracer.child(core_load, "sc.compile", at, compile);
    tracer.child(sc, "sc.cgen", at + (compile - cgen), cgen);
    tracer.child(core_load, "db.load", at + compile, load);

    let (result, at, exec) = timed(|| loaded.execute());
    tracer.child(root, "exec.execute", at, exec);

    let header = response_header(&result, exec);
    let encode_at = Instant::now();
    let (bytes, encode, decode) = wire_result(result.rows(), &header)?;
    tracer.child(root, "wire.encode_result", encode_at, encode);
    tracer.child(root, "wire.decode_result", encode_at + encode, decode);
    tracer.close(root, Instant::now());

    let rows = base_rows(&plan, system);
    let (est, actual) = (report.est_rows().max(1.0), (result.len() as f64).max(1.0));
    totals.requests += 1.0;
    totals.qerror_ln += (est / actual).max(actual / est).ln();
    totals.reordered += report.reordered() as u8 as f64;
    totals.cgen += cgen;
    totals.c_bytes += loaded.compilation.c_source.len() as f64;
    totals.resident_bytes += loaded.memory_bytes() as f64;
    totals.base_rows += rows;
    totals.result_bytes += bytes as f64;
    Ok(rows)
}

/// Ratio of Q1's median execution time at `parallelism = nproc` to the one
/// at 1, executions interleaved. With no spare core this is the morsel
/// scheduler's overhead, not a speed-up.
fn pool_par_ratio(system: &LegoBase, seed: u64, nproc: usize) -> Result<f64, String> {
    let sql = &TEMPLATES[template_index("q1")].variants(seed, 1)[0];
    let lowered = legobase::sql::plan(sql, &system.data.catalog).map_err(|e| e.render(sql))?;
    let (plan, _) = optimizer::optimize(&lowered, &system.data.catalog);
    let settings = *QueryRequest::sql(sql.as_str()).settings();
    let serial = system.load(&plan, &settings);
    let parallel = system.load(&plan, &settings.with_parallelism(nproc.max(2)));
    let (mut t_serial, mut t_parallel) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        for (q, times) in [(&serial, &mut t_serial), (&parallel, &mut t_parallel)] {
            let (r, _, d) = timed(|| q.execute());
            black_box(r.len());
            times.push(ms(d));
        }
    }
    Ok(stats::median(&t_parallel).expect("seven samples")
        / stats::median(&t_serial).expect("seven samples"))
}

/// Decoded gigabytes per second of `PackedInts::unpack_range` over the first
/// archive-mapped packed column of `lineitem`.
fn unpack_gbps(system: &LegoBase) -> Result<f64, String> {
    let arity = system.data.catalog.table("lineitem").schema.len();
    let packed = (0..arity)
        .find_map(|c| system.data.mapped_packed("lineitem", c))
        .ok_or("the archive maps no packed lineitem column")?;
    let mut out = vec![0i64; packed.len()];
    let mut elapsed = Duration::ZERO;
    let mut passes = 0u32;
    while elapsed < Duration::from_millis(50) {
        let ((), _, d) = timed(|| packed.unpack_range(0, &mut out));
        black_box(&out);
        elapsed += d;
        passes += 1;
    }
    Ok(passes as f64 * (out.len() * 8) as f64 / elapsed.as_secs_f64() / 1e9)
}

/// Frame-codec probes over the rows of the row-export template.
fn wire_probes(
    system: &LegoBase,
    seed: u64,
    metrics: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let sql = &TEMPLATES[template_index("x1")].variants(seed, 1)[0];
    let reply = system.query(&QueryRequest::sql(sql.as_str())).map_err(|e| e.to_string())?;
    let rows = reply.result.rows();
    if rows.is_empty() {
        return Err("the row export returned no rows to encode".into());
    }
    let header = response_header(&reply.result, reply.exec_time);
    let (mut bytes, mut encode, mut decode) = (0usize, Duration::ZERO, Duration::ZERO);
    while encode + decode < Duration::from_millis(40) {
        let (b, e, d) = wire_result(rows, &header)?;
        bytes += b;
        encode += e;
        decode += d;
    }
    metrics.insert("wire.encode_batch_mbps".into(), bytes as f64 / encode.as_secs_f64() / 1e6);
    metrics.insert("wire.decode_batch_mbps".into(), bytes as f64 / decode.as_secs_f64() / 1e6);

    // One full batch through write_frame and read_frame (FNV on both sides).
    let payload = wire::encode_batch(&rows[..rows.len().min(1024)]);
    let mut buffer = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    let mut elapsed = Duration::ZERO;
    const REPS: u32 = 200;
    for _ in 0..REPS {
        buffer.clear();
        let (r, _, d) = timed(|| -> Result<usize, String> {
            wire::write_frame(&mut buffer, FrameKind::ResultBatch, &payload)
                .map_err(|e| e.to_string())?;
            let (_, back) =
                wire::read_frame(&mut Cursor::new(&buffer)).map_err(|e| e.to_string())?;
            Ok(back.len())
        });
        black_box(r?);
        elapsed += d;
    }
    metrics.insert("wire.frame_roundtrip_us".into(), us(elapsed) / REPS as f64);
    Ok(())
}

/// One request over a raw `legobase-wire-v1` connection. `Client::run` hides
/// the server's own total time; this reads it from the response header, so
/// that transport time is the client's wall time minus the server's.
fn raw_request(stream: &mut TcpStream, sql: &str) -> Result<(Duration, Duration), String> {
    let err = |e: wire::WireError| e.to_string();
    let start = Instant::now();
    let payload = wire::encode_request(&QueryRequest::sql(sql)).map_err(err)?;
    wire::write_frame(stream, FrameKind::Request, &payload).map_err(|e| e.to_string())?;
    let header = match wire::read_frame(stream).map_err(err)? {
        (FrameKind::ResponseHeader, p) => wire::decode_header(&p).map_err(err)?,
        (kind, _) => return Err(format!("expected a response header, got {kind:?}")),
    };
    let mut rows = 0u64;
    loop {
        match wire::read_frame(stream).map_err(err)? {
            (FrameKind::ResultBatch, p) => {
                rows += wire::decode_batch(&p).map_err(err)?.len() as u64
            }
            (FrameKind::ResponseEnd, _) => break,
            (kind, _) => return Err(format!("expected a batch or the end, got {kind:?}")),
        }
    }
    if rows != header.rows {
        return Err(format!("header announced {} rows, stream delivered {rows}", header.rows));
    }
    Ok((start.elapsed(), header.total_time))
}

/// Runs the walk over the archive at `archive`.
pub fn walk(
    archive: &std::path::Path,
    workload: &Workload,
    schedule: &Schedule,
    seed: u64,
    nproc: usize,
    epoch: Instant,
) -> Result<Walk, String> {
    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();

    let (system, _, open) = timed(|| LegoBase::from_archive(archive));
    let system = system.map_err(|e| format!("cannot open {}: {e}", archive.display()))?;
    metrics.insert("archive.open_ms".into(), ms(open));
    let file_bytes = std::fs::metadata(archive).map_err(|e| e.to_string())?.len();
    metrics.insert("archive.bytes".into(), file_bytes as f64);
    metrics.insert("archive.mapped_mb".into(), system.data.mapped_bytes() as f64 / 1e6);

    // Staged requests: the first variants of every template of the mix.
    let per_template = (MAX_STAGED / workload.templates.len()).clamp(1, workload.variants);
    let mut tracer = Tracer::new(epoch, 1 << 32);
    let mut totals = StagedTotals::default();
    let mut base_rows = vec![0.0; workload.templates.len()];
    for (index, text) in schedule.texts.iter().enumerate() {
        if text.variant < per_template {
            let rows = staged_request(&system, &mut tracer, index, &text.sql, &mut totals)?;
            base_rows[text.slot] = rows;
        }
    }
    let n = totals.requests;
    let stage = tracer.duration_by_name();
    let stage_us = |name: &str| stage.get(name).map_or(0.0, |(_, ns)| *ns as f64 / 1e3 / n);
    metrics.insert("sql.plan_us".into(), stage_us("sql.plan"));
    metrics.insert("sql.cache_text_us".into(), stage_us("sql.cache_text"));
    metrics.insert("optimizer.optimize_us".into(), stage_us("optimizer.optimize"));
    metrics.insert("optimizer.qerror_gm".into(), (totals.qerror_ln / n).exp());
    metrics.insert("optimizer.reordered".into(), totals.reordered);
    metrics.insert("sc.compile_us".into(), stage_us("sc.compile"));
    metrics.insert("sc.cgen_us".into(), us(totals.cgen) / n);
    metrics.insert("sc.c_bytes".into(), totals.c_bytes / n);
    metrics.insert("load.ms".into(), stage_us("db.load") / 1e3);
    metrics.insert("load.resident_mb".into(), totals.resident_bytes / 1e6);
    metrics.insert("exec.bytes_per_row".into(), totals.resident_bytes / totals.base_rows);
    metrics.insert("wire.encode_request_us".into(), stage_us("wire.encode_request"));
    metrics.insert("wire.decode_request_us".into(), stage_us("wire.decode_request"));
    metrics.insert("wire.result_bytes_per_query".into(), totals.result_bytes / n);
    let unattributed = tracer.self_time_by_name()["request"].1 as f64;
    metrics.insert("trace.unattributed_share".into(), unattributed / tracer.request_ns() as f64);

    metrics.insert("pool.par_ratio".into(), pool_par_ratio(&system, seed, nproc)?);
    metrics.insert("storage.unpack_gbps".into(), unpack_gbps(&system)?);
    wire_probes(&system, seed, &mut metrics)?;

    // Service hit path: every template's first variant through an in-process
    // session, once cold and PROBE_REPS times warm.
    let first_texts: Vec<String> =
        TEMPLATES.iter().map(|t| t.variants(seed, 1).remove(0)).collect();
    let in_mix = |template: usize| workload.templates.iter().any(|n| template_index(n) == template);
    let service = system.serve_with(ServeOptions::default());
    let mut side_p50_ms = Vec::with_capacity(TEMPLATES.len());
    let (mut overhead_us, mut hits, mut inproc_ms) = (0.0, 0.0, 0.0);
    {
        let session = service.session();
        for (template, sql) in first_texts.iter().enumerate() {
            let request = QueryRequest::sql(sql.as_str());
            session.query(&request).map_err(|e| e.to_string())?;
            let mut walls = Vec::with_capacity(PROBE_REPS);
            for _ in 0..PROBE_REPS {
                let (reply, _, wall) = timed(|| session.query(&request));
                let reply = reply.map_err(|e| e.to_string())?;
                walls.push(ms(wall));
                if in_mix(template) && reply.prepared_cached {
                    overhead_us += us(wall.saturating_sub(reply.exec_time));
                    hits += 1.0;
                }
            }
            let p50 = stats::median(&walls).expect("PROBE_REPS samples");
            if in_mix(template) {
                inproc_ms += p50;
            }
            side_p50_ms.push(p50);
        }
    }
    metrics.insert("service.overhead_us".into(), overhead_us / f64::max(hits, 1.0));
    let system = service.into_system();

    // Socket transport: the mix's first variants over loopback TCP, server
    // and client on one CPU as in `served-tcp` (unpinned where that fails).
    let _pinned = crate::sys::pin_to_one_cpu();
    let server = system
        .serve_tcp("127.0.0.1:0", ServeOptions::default())
        .map_err(|e| format!("cannot serve on loopback: {e}"))?;
    let mut connects = Vec::with_capacity(5);
    for _ in 0..5 {
        let (client, _, d) = timed(|| legobase::client::Client::connect(server.local_addr()));
        drop(client.map_err(|e| e.to_string())?);
        connects.push(ms(d));
    }
    metrics.insert("tcp.connect_ms".into(), stats::median(&connects).expect("five samples"));
    let (mut transport_us, mut requests, mut tcp_ms) = (0.0, 0.0, 0.0);
    {
        let mut stream = TcpStream::connect(server.local_addr()).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        wire::client_handshake(&mut stream).map_err(|e| e.to_string())?;
        for (_, sql) in first_texts.iter().enumerate().filter(|(t, _)| in_mix(*t)) {
            raw_request(&mut stream, sql)?;
            let mut walls = Vec::with_capacity(PROBE_REPS);
            for _ in 0..PROBE_REPS {
                let (wall, server_total) = raw_request(&mut stream, sql)?;
                transport_us += us(wall.saturating_sub(server_total));
                requests += 1.0;
                walls.push(ms(wall));
            }
            tcp_ms += stats::median(&walls).expect("PROBE_REPS samples");
        }
    }
    server.shutdown();
    metrics.insert("tcp.transport_us".into(), transport_us / requests);
    metrics.insert("tcp.vs_inproc_ratio".into(), tcp_ms / inproc_ms);

    Ok(Walk { metrics, tracer, base_rows, side_p50_ms })
}
