//! The load generator: one connection, at most two threads, two modes.
//!
//! * **Closed loop** — `window` requests are outstanding at all times; a
//!   reply releases the next request. A slow server receives less load,
//!   so this measures capacity, not latency.
//! * **Open loop** — requests leave on a fixed schedule whatever the
//!   server does, and each is timed from the moment it was *due*, not the
//!   moment it was actually written: a stall anywhere delays later
//!   requests and that wait is part of their latency. How late the
//!   generator itself ran is reported beside it.
//!
//! No phase retries anything.

use std::io::{self, BufReader, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use pim_aligner::service::protocol::{
    decode_response, encode_request, read_frame, write_frame, AlignRequest, Request, Response,
};

use crate::host::{steal_ticks, Sample};
use crate::stats;

/// A reply that has not come after this long never will; the requests
/// still outstanding are counted as failed and the phase ends.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Closed-loop throughput is read off in windows of this length and the
/// median window reported, so one scheduler hiccup moves one sample.
const RATE_WINDOW: Duration = Duration::from_millis(250);

/// Open-loop latency is read off per stretch of the schedule this long.
const OPEN_WINDOW: Duration = Duration::from_millis(250);

fn requests_per_window(rps: u64) -> usize {
    (rps as f64 * OPEN_WINDOW.as_secs_f64()).round().max(1.0) as usize
}

/// The sender sleeps until this close to a due time, then spins.
const SPIN_MARGIN: Duration = Duration::from_micros(80);

/// Outcome counts of one phase. `sent = aligned + shed + late + failed`:
/// `late` is an open-loop `Aligned` reply that came after the lateness
/// limit, `failed` any other terminal reply or none at all. Only `aligned`
/// is a success.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub sent: u64,
    pub aligned: u64,
    pub shed: u64,
    pub late: u64,
    pub failed: u64,
}

impl Counts {
    pub fn add(&mut self, other: Counts) {
        self.sent += other.sent;
        self.aligned += other.aligned;
        self.shed += other.shed;
        self.late += other.late;
        self.failed += other.failed;
    }

    /// Requests that did not end as a timely `Aligned`.
    pub fn not_ok(&self) -> u64 {
        self.sent - self.aligned
    }
}

fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
    Ok(stream)
}

/// Writes one `Align` request as a single `write`: the frame is put
/// together in `frame` first, so with `TCP_NODELAY` its length prefix and
/// payload are never split across two segments.
fn send_align(
    stream: &mut TcpStream,
    req_id: u64,
    seq: &str,
    frame: &mut Vec<u8>,
) -> io::Result<()> {
    let payload = encode_request(&Request::Align(AlignRequest {
        req_id,
        deadline_ms: 0,
        id: String::new(),
        seq: seq.to_owned(),
    }));
    frame.clear();
    write_frame(frame, &payload)?;
    stream.write_all(frame)
}

/// `Ok(None)` when no reply came within [`REPLY_TIMEOUT`].
fn recv(reader: &mut BufReader<TcpStream>) -> io::Result<Option<Response>> {
    match read_frame(reader) {
        Ok(Some(payload)) => decode_response(&payload)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        Ok(None) => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "pimserve closed the connection mid-phase",
        )),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// What a closed-loop phase measured.
#[derive(Debug, Clone)]
pub struct ClosedReport {
    pub counts: Counts,
    /// `Aligned` replies per second, one sample per [`RATE_WINDOW`].
    pub rates: Vec<Sample>,
}

/// Keeps `window` requests outstanding for `duration`, then lets the
/// outstanding ones finish.
pub fn closed_loop(
    addr: &str,
    reads: &[String],
    window: usize,
    duration: Duration,
) -> io::Result<ClosedReport> {
    let mut stream = connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut frame = Vec::new();
    let mut counts = Counts::default();
    let windows = (duration.as_nanos() / RATE_WINDOW.as_nanos()).max(1) as usize;
    let mut per_window = vec![0u64; windows];
    // Steal that accrued during each window. A stall that swallows whole
    // windows charges its steal to every window it touched.
    let mut stolen = vec![0u64; windows];
    let mut current = 0usize;
    let mut last_mark = steal_ticks();
    let t0 = Instant::now();
    let mut outstanding = 0usize;
    for _ in 0..window {
        send_align(
            &mut stream,
            counts.sent,
            &reads[counts.sent as usize % reads.len()],
            &mut frame,
        )?;
        counts.sent += 1;
        outstanding += 1;
    }
    while outstanding > 0 {
        let Some(reply) = recv(&mut reader)? else {
            counts.failed += outstanding as u64;
            break;
        };
        outstanding -= 1;
        let at = t0.elapsed();
        let w = (at.as_nanos() / RATE_WINDOW.as_nanos()) as usize;
        if w > current {
            let now = steal_ticks();
            stolen[current.min(windows)..w.min(windows)].fill(now - last_mark);
            (current, last_mark) = (w, now);
        }
        match reply {
            Response::Aligned { .. } => {
                counts.aligned += 1;
                if w < windows {
                    per_window[w] += 1;
                }
            }
            Response::Overloaded { .. } => counts.shed += 1,
            _ => counts.failed += 1,
        }
        if at < duration {
            send_align(
                &mut stream,
                counts.sent,
                &reads[counts.sent as usize % reads.len()],
                &mut frame,
            )?;
            counts.sent += 1;
            outstanding += 1;
        }
    }
    stolen[current.min(windows)..].fill(steal_ticks() - last_mark);
    let rates = per_window
        .iter()
        .zip(&stolen)
        .map(|(&n, &ticks)| {
            let secs = RATE_WINDOW.as_secs_f64();
            Sample::new(n as f64 / secs, ticks, secs)
        })
        .collect();
    Ok(ClosedReport { counts, rates })
}

/// When request `i` of an open-loop phase at `rps` is due, in ns after the
/// phase starts. A function of the schedule alone: nothing the server or
/// the generator does can move it.
pub fn due_ns(i: u64, rps: u64) -> u64 {
    (u128::from(i) * 1_000_000_000 / u128::from(rps)) as u64
}

/// Latency of request `i` whose reply arrived `reply_at_ns` after the
/// phase started: timed from when the request was due.
pub fn latency_ns(reply_at_ns: u64, i: u64, rps: u64) -> u64 {
    reply_at_ns.saturating_sub(due_ns(i, rps))
}

/// What an open-loop phase measured.
#[derive(Debug, Clone)]
pub struct OpenReport {
    pub counts: Counts,
    /// Ascending latencies of the timely `Aligned` replies, ns from due time.
    pub latencies_ns: Vec<u64>,
    /// The same latencies in schedule order: entry `i` is request `i`'s,
    /// `None` when it got no timely `Aligned`.
    pub by_request_ns: Vec<Option<u64>>,
    /// Ascending generator lateness (actual write − due time), ns.
    pub late_ns: Vec<u64>,
    /// Steal counter when each [`OPEN_WINDOW`] of the schedule began, and
    /// when the last request had been written.
    pub steal_marks: Vec<u64>,
    pub rps: u64,
    /// First request due to last reply.
    pub elapsed_s: f64,
}

impl OpenReport {
    pub fn latency_ms(&self, q: f64) -> f64 {
        if self.latencies_ns.is_empty() {
            return f64::NAN;
        }
        stats::percentile(&self.latencies_ns, q) as f64 / 1e6
    }

    pub fn late_ms(&self, q: f64) -> f64 {
        stats::percentile(&self.late_ns, q) as f64 / 1e6
    }

    /// The `q` latency percentile, in ms, of each full [`OPEN_WINDOW`] of
    /// the schedule: one sample per stretch of consecutively scheduled
    /// requests, so a stall spoils the stretches it overlaps and no others.
    pub fn windowed_ms(&self, q: f64) -> Vec<Sample> {
        let per_window = requests_per_window(self.rps);
        self.by_request_ns
            .chunks_exact(per_window)
            .zip(self.steal_marks.windows(2))
            .filter_map(|(chunk, mark)| {
                let mut timely: Vec<u64> = chunk.iter().flatten().copied().collect();
                timely.sort_unstable();
                (!timely.is_empty()).then(|| {
                    Sample::new(
                        stats::percentile(&timely, q) as f64 / 1e6,
                        mark[1] - mark[0],
                        OPEN_WINDOW.as_secs_f64(),
                    )
                })
            })
            .collect()
    }

    /// The phase's latency summary: the median, and the highest percentile
    /// this many samples can support.
    pub fn latency_line(&self) -> String {
        let n = self.latencies_ns.len();
        match stats::highest_percentile(n) {
            Some(q) => format!(
                "    latency from due time: p50 {} ms, p{} {} ms, n {n}; generator late p99 {} ms",
                self.latency_ms(0.5),
                q * 100.0,
                self.latency_ms(q),
                self.late_ms(0.99),
            ),
            None => format!("    latency from due time: {n} samples, too few for a percentile"),
        }
    }
}

/// Sends `rps × duration` requests on a fixed schedule and times each
/// reply from its request's due time. An `Aligned` reply more than
/// `late_limit` after the due time counts as late, not as aligned.
pub fn open_loop(
    addr: &str,
    reads: &[String],
    rps: u64,
    duration: Duration,
    late_limit: Duration,
) -> io::Result<OpenReport> {
    let total = (rps as f64 * duration.as_secs_f64()).round().max(1.0) as u64;
    let mut sender = connect(addr)?;
    let mut reader = BufReader::new(sender.try_clone()?);
    let t0 = Instant::now();
    let (late_ns, received) = std::thread::scope(|scope| {
        let send = scope.spawn(move || -> io::Result<(Vec<u64>, Vec<u64>)> {
            let mut frame = Vec::new();
            let mut late = Vec::with_capacity(total as usize);
            let per_window = requests_per_window(rps) as u64;
            let mut steal_marks = Vec::new();
            for i in 0..total {
                if i % per_window == 0 {
                    steal_marks.push(steal_ticks());
                }
                let due = Duration::from_nanos(due_ns(i, rps));
                loop {
                    let now = t0.elapsed();
                    if now >= due {
                        break;
                    }
                    if due - now > SPIN_MARGIN {
                        std::thread::sleep(due - now - SPIN_MARGIN);
                    } else {
                        std::hint::spin_loop();
                    }
                }
                late.push((t0.elapsed() - due).as_nanos() as u64);
                send_align(&mut sender, i, &reads[i as usize % reads.len()], &mut frame)?;
            }
            steal_marks.push(steal_ticks());
            Ok((late, steal_marks))
        });
        let mut counts = Counts {
            sent: total,
            ..Counts::default()
        };
        let mut latencies = Vec::with_capacity(total as usize);
        let mut by_request = vec![None; total as usize];
        let mut answered = 0u64;
        let receive = (|| -> io::Result<()> {
            while answered < total {
                let Some(reply) = recv(&mut reader)? else {
                    break;
                };
                answered += 1;
                let id = reply.req_id();
                let latency = latency_ns(t0.elapsed().as_nanos() as u64, id, rps);
                match reply {
                    Response::Aligned { .. } if latency <= late_limit.as_nanos() as u64 => {
                        counts.aligned += 1;
                        latencies.push(latency);
                        if let Some(slot) = by_request.get_mut(id as usize) {
                            *slot = Some(latency);
                        }
                    }
                    Response::Aligned { .. } => counts.late += 1,
                    Response::Overloaded { .. } => counts.shed += 1,
                    _ => counts.failed += 1,
                }
            }
            Ok(())
        })();
        let elapsed_s = t0.elapsed().as_secs_f64();
        let late = send.join().expect("sender thread panicked");
        // Never answered: failed.
        counts.failed += total - answered;
        (
            late,
            receive.map(|()| (counts, latencies, by_request, elapsed_s)),
        )
    });
    let (counts, mut latencies_ns, by_request_ns, elapsed_s) = received?;
    let (mut late_ns, steal_marks) = late_ns?;
    latencies_ns.sort_unstable();
    late_ns.sort_unstable();
    Ok(OpenReport {
        counts,
        latencies_ns,
        by_request_ns,
        late_ns,
        steal_marks,
        rps,
        elapsed_s,
    })
}

/// One line per phase: what was sent and how it ended.
pub fn phase_line(label: &str, c: Counts) -> String {
    format!(
        "  phase {label}: sent {} aligned {} shed {} late {} failed {}",
        c.sent, c.aligned, c.shed, c.late, c.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_depend_on_the_schedule_alone() {
        assert_eq!(due_ns(0, 4_000), 0);
        assert_eq!(due_ns(1, 4_000), 250_000);
        assert_eq!(due_ns(4_000, 4_000), 1_000_000_000);
        // No drift: the millionth request is due exactly 250 s in.
        assert_eq!(due_ns(1_000_000, 4_000), 250_000_000_000);
        // A rate that does not divide a second still never runs ahead.
        assert_eq!(due_ns(3, 3), 1_000_000_000);
        assert_eq!(due_ns(1, 3), 333_333_333);
    }

    #[test]
    fn latency_runs_from_the_due_time_however_late_the_write_or_early_the_reply() {
        // Request 8 at 4 000 rps is due at 2 ms. Suppose a stalled sender
        // only wrote it at 5 ms and the reply came at 6 ms: the user waited
        // 4 ms, not the 1 ms the server saw.
        assert_eq!(latency_ns(6_000_000, 8, 4_000), 4_000_000);
        // The reply time of an earlier request does not move a later
        // request's due time.
        assert_eq!(latency_ns(6_000_000, 9, 4_000), 3_750_000);
        // Clock granularity can never yield a negative latency.
        assert_eq!(latency_ns(0, 8, 4_000), 0);
    }

    #[test]
    fn a_stall_spoils_only_the_windows_it_overlaps() {
        let mut by_request_ns: Vec<Option<u64>> = (0..10).map(|_| Some(1_000_000)).collect();
        by_request_ns[4] = Some(90_000_000); // second window
        by_request_ns[5] = None; // shed or late: not a latency sample
        let report = OpenReport {
            counts: Counts::default(),
            latencies_ns: Vec::new(),
            by_request_ns,
            late_ns: Vec::new(),
            // 12 requests/s: three to a window. Steal accrued in the second.
            steal_marks: vec![100, 100, 107, 107],
            rps: 12,
            elapsed_s: 0.0,
        };
        // Three full windows of three; the tenth request is dropped.
        let max: Vec<f64> = report.windowed_ms(1.0).iter().map(|s| s.value).collect();
        assert_eq!(max, vec![1.0, 90.0, 1.0]);
        let p50 = report.windowed_ms(0.5);
        assert_eq!(
            p50.iter().map(|s| s.value).collect::<Vec<_>>(),
            vec![1.0; 3]
        );
        let clean: Vec<bool> = p50.iter().map(Sample::undisturbed).collect();
        assert_eq!(clean, vec![true, false, true]);
    }

    #[test]
    fn counts_add_up() {
        let mut total = Counts::default();
        total.add(Counts {
            sent: 10,
            aligned: 6,
            shed: 2,
            late: 1,
            failed: 1,
        });
        total.add(Counts {
            sent: 5,
            aligned: 5,
            ..Counts::default()
        });
        assert_eq!(total.sent, 15);
        assert_eq!(total.not_ok(), 4);
    }
}
