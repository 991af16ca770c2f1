//! The four closed-loop workloads: inputs from the seed, set-up, one
//! solve, and the reference every solve is checked against.
//!
//! Each workload runs at most [`RANKS`] compute threads or ranks, the
//! core count of the 2-core host the bounds were fitted on.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use pdc_exemplars::drugdesign::{self, DrugConfig, DrugResult};
use pdc_exemplars::heat::{self, HeatConfig};
use pdc_mpc::{Comm, Source, TagSel, Transport, World};
use pdc_net::{NetConfig, TcpTransport};
use pdc_shmem::{Schedule, Team};

/// Compute threads (Module A) or ranks (Module B) per solve.
pub const RANKS: usize = 2;
/// `allreduce` calls in one `moduleB-wire` solve.
pub const WIRE_ROUNDS: usize = 10;
/// `f64`s each rank contributes to one `moduleB-wire` allreduce.
pub const WIRE_LEN: usize = 4096;
/// Longest a wire rank may take to answer one command before the
/// solve counts as failed by timeout.
const WIRE_REPLY_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `drugdesign::run_shmem`: one parallel region of LCS scoring.
    Drug,
    /// `heat::run_shmem`: 2000 tiny parallel regions per solve.
    Heat,
    /// `heat::run_mpc` on threads: thousands of tiny typed messages.
    Halo,
    /// Allreduce of large `Vec<f64>`s over a loopback TCP mesh.
    Wire,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Drug,
        Workload::Heat,
        Workload::Halo,
        Workload::Wire,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Drug => "moduleA-drug",
            Workload::Heat => "moduleA-heat",
            Workload::Halo => "moduleB-halo",
            Workload::Wire => "moduleB-wire",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: the benchmark's own generator, so inputs depend only on
/// the seed and not on any crate under test.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The drug-design population: 20 000 ligands of length 2..=8 scored
/// against a 240-residue protein, both drawn from the seed.
pub fn drug_config(seed: u64) -> DrugConfig {
    let mut rng = SplitMix::new(seed);
    DrugConfig {
        num_ligands: 20_000,
        max_len: 8,
        protein: drugdesign::make_protein(240, rng.next_u64()),
        seed: rng.next_u64(),
    }
}

/// The rod shared by `moduleA-heat` and `moduleB-halo`: 4096 cells,
/// 2000 steps, boundary and initial temperatures drawn from the seed.
pub fn rod_config(seed: u64) -> HeatConfig {
    let mut rng = SplitMix::new(seed);
    HeatConfig {
        cells: 4096,
        left: 50.0 + 100.0 * rng.next_f64(),
        right: 50.0 * rng.next_f64(),
        initial: 100.0 * rng.next_f64(),
        alpha: 0.25,
        steps: 2000,
    }
}

/// Each wire rank's allreduce operands: `WIRE_ROUNDS` vectors of
/// `WIRE_LEN` values with full 53-bit mantissas, so their JSON text is
/// as long as real measurement data.
pub fn wire_inputs(seed: u64) -> Vec<Vec<Vec<f64>>> {
    let mut rng = SplitMix::new(seed);
    (0..RANKS)
        .map(|_| {
            (0..WIRE_ROUNDS)
                .map(|_| {
                    (0..WIRE_LEN)
                        .map(|_| 1e3 * (rng.next_f64() - 0.5))
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Elementwise sum of two vectors: the allreduce operator. With two
/// operands, floating-point addition is commutative, so every rank's
/// result equals the sequential sum bit for bit.
pub fn add(a: Vec<f64>, b: Vec<f64>) -> Vec<f64> {
    a.into_iter().zip(b).map(|(x, y)| x + y).collect()
}

/// The exact allreduce results every rank must return, rank-major.
pub fn wire_reference(inputs: &[Vec<Vec<f64>>]) -> Vec<f64> {
    let sums: Vec<f64> = (0..WIRE_ROUNDS)
        .flat_map(|k| add(inputs[0][k].clone(), inputs[1][k].clone()))
        .collect();
    sums.repeat(RANKS)
}

/// What a solve returns.
#[derive(Debug, Clone)]
pub enum Answer {
    Drug(DrugResult),
    Floats(Vec<f64>),
}

impl Answer {
    /// Bit-for-bit equality: the exemplars promise to match `run_seq`
    /// exactly, and the allreduce of two operands is exact.
    pub fn matches(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Drug(a), Answer::Drug(b)) => a == b,
            (Answer::Floats(a), Answer::Floats(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            _ => false,
        }
    }
}

/// The sequential solution of `workload`'s inputs: what `run_seq`
/// returns, or the exact allreduce sums.
fn reference(workload: Workload, seed: u64) -> Answer {
    match workload {
        Workload::Drug => Answer::Drug(drugdesign::run_seq(&drug_config(seed))),
        Workload::Heat | Workload::Halo => Answer::Floats(heat::run_seq(&rod_config(seed))),
        Workload::Wire => Answer::Floats(wire_reference(&wire_inputs(seed))),
    }
}

/// A set-up workload, ready to solve.
pub struct Instance {
    reference: Answer,
    kind: Kind,
}

enum Kind {
    Drug { config: DrugConfig, team: Team },
    Heat { config: HeatConfig, team: Team },
    Halo { config: HeatConfig },
    Wire { mesh: Mesh },
}

impl Instance {
    /// Everything before the first solve: input generation, the
    /// reference solution, and the team or world (on the wire: both
    /// `TcpTransport::connect` calls, `World::attach` and a barrier).
    pub fn setup(workload: Workload, seed: u64, scratch: &Path) -> Result<Self, String> {
        let reference = reference(workload, seed);
        let kind = match workload {
            Workload::Drug => Kind::Drug {
                config: drug_config(seed),
                team: Team::new(RANKS),
            },
            Workload::Heat => Kind::Heat {
                config: rod_config(seed),
                team: Team::new(RANKS),
            },
            Workload::Halo => Kind::Halo {
                config: rod_config(seed),
            },
            Workload::Wire => Kind::Wire {
                mesh: Mesh::start(scratch, Some(wire_inputs(seed)))?,
            },
        };
        Ok(Self { reference, kind })
    }

    /// One solve, untimed here; the caller times it.
    pub fn solve(&mut self) -> Result<Answer, String> {
        match &mut self.kind {
            Kind::Drug { config, team } => Ok(Answer::Drug(drugdesign::run_shmem(
                config,
                team,
                Schedule::Dynamic { chunk: 1 },
            ))),
            Kind::Heat { config, team } => Ok(Answer::Floats(heat::run_shmem(config, team))),
            Kind::Halo { config } => Ok(Answer::Floats(heat::run_mpc(config, RANKS))),
            Kind::Wire { mesh } => mesh.solve().map(Answer::Floats),
        }
    }

    /// Whether `answer` is the reference solution, bit for bit.
    pub fn verify(&self, answer: &Answer) -> bool {
        answer.matches(&self.reference)
    }

    /// The sequential reference solve, for the paired speedup.
    pub fn solve_seq(&self) -> Answer {
        match &self.kind {
            Kind::Drug { config, .. } => Answer::Drug(drugdesign::run_seq(config)),
            Kind::Heat { config, .. } | Kind::Halo { config } => {
                Answer::Floats(heat::run_seq(config))
            }
            Kind::Wire { mesh } => {
                let inputs = mesh.inputs.as_ref().expect("a workload mesh has inputs");
                Answer::Floats(wire_reference(inputs))
            }
        }
    }

    /// Items of useful work in one solve: ligands scored, cell updates,
    /// or `f64`s combined by the allreduce operator.
    pub fn work_items(&self) -> u64 {
        let items = match &self.kind {
            Kind::Drug { config, .. } => config.num_ligands,
            Kind::Heat { config, .. } | Kind::Halo { config } => config.cells * config.steps,
            Kind::Wire { .. } => WIRE_ROUNDS * WIRE_LEN,
        };
        items as u64
    }

    /// Stop the wire mesh, if any, and wait for its threads.
    pub fn teardown(self) -> Result<(), String> {
        match self.kind {
            Kind::Wire { mesh } => mesh.stop(),
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------
// The wire mesh: two ranks in one process, each on its own thread with
// its own `TcpTransport` (the shape of `with_mesh` in tests/net.rs).
// ---------------------------------------------------------------------

enum Cmd {
    Solve,
    /// Rank 0 times `rounds` round trips of `len` raw bytes; rank 1
    /// echoes them.
    PingPong {
        rounds: usize,
        len: usize,
    },
    Stop,
}

type Reply = Result<Vec<f64>, String>;

struct RankThread {
    cmds: mpsc::Sender<Cmd>,
    replies: mpsc::Receiver<Reply>,
    handle: JoinHandle<()>,
}

/// A formed two-rank TCP mesh.
pub struct Mesh {
    ranks: Vec<RankThread>,
    dir: PathBuf,
    inputs: Option<Vec<Vec<Vec<f64>>>>,
    /// Seconds each rank spent in `TcpTransport::connect`.
    pub connect_s: Vec<f64>,
}

static SESSIONS: AtomicU64 = AtomicU64::new(0);

impl Mesh {
    /// Connect both ranks, attach a `World` on each and pass a first
    /// barrier. `inputs[r]` are rank `r`'s allreduce operands; a mesh
    /// without inputs serves only ping-pong probes.
    pub fn start(scratch: &Path, inputs: Option<Vec<Vec<Vec<f64>>>>) -> Result<Self, String> {
        let salt = SESSIONS.fetch_add(1, Ordering::Relaxed);
        let pid = u64::from(std::process::id());
        let dir = scratch.join(format!("mesh-{pid}-{salt}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir: {e}"))?;
        let rendezvous = dir.join("rendezvous.addr");
        let session = (pid << 24) | salt;
        let mut ranks = Vec::with_capacity(RANKS);
        let mut ready = Vec::with_capacity(RANKS);
        let mut failure = None;
        for rank in 0..RANKS {
            if rank == 1 {
                // Rank 1 starts once rank 0 has published its address.
                // Started together, rank 1's first look at the file
                // races rank 0's write and loses about half the time,
                // paying a 10 ms poll sleep: set-up times would form
                // two modes and their median would jump between them.
                if let Err(e) = wait_for_file(&rendezvous) {
                    failure = Some(e);
                    break;
                }
            }
            let (cmd_tx, cmd_rx) = mpsc::channel();
            let (reply_tx, reply_rx) = mpsc::channel();
            let cfg = NetConfig::new(rank, RANKS, session, rendezvous.clone());
            let operands = inputs.as_ref().map(|i| i[rank].clone()).unwrap_or_default();
            let handle = std::thread::spawn(move || rank_main(cfg, operands, cmd_rx, reply_tx));
            ranks.push(RankThread {
                cmds: cmd_tx,
                replies: reply_rx,
                handle,
            });
        }
        for r in &ranks {
            match r.replies.recv_timeout(WIRE_REPLY_TIMEOUT) {
                Ok(Ok(connect)) => ready.push(connect[0]),
                Ok(Err(e)) => failure = Some(e),
                Err(e) => failure = Some(format!("rank never became ready: {e}")),
            }
        }
        let mesh = Self {
            ranks,
            dir,
            inputs,
            connect_s: ready,
        };
        match failure {
            None => Ok(mesh),
            Some(e) => {
                let _ = mesh.stop();
                Err(e)
            }
        }
    }

    fn command(&self, make: impl Fn() -> Cmd) -> Result<Vec<Vec<f64>>, String> {
        for r in &self.ranks {
            r.cmds
                .send(make())
                .map_err(|_| "wire rank exited".to_owned())?;
        }
        self.ranks
            .iter()
            .map(|r| match r.replies.recv_timeout(WIRE_REPLY_TIMEOUT) {
                Ok(reply) => reply,
                Err(mpsc::RecvTimeoutError::Timeout) => Err("wire rank timed out".to_owned()),
                Err(mpsc::RecvTimeoutError::Disconnected) => Err("wire rank died".to_owned()),
            })
            .collect()
    }

    /// One solve: `WIRE_ROUNDS` allreduces on both ranks; the results
    /// of every rank, rank-major.
    pub fn solve(&self) -> Result<Vec<f64>, String> {
        Ok(self.command(|| Cmd::Solve)?.concat())
    }

    /// Round-trip seconds of `rounds` raw-bytes ping-pongs of `len`
    /// bytes between the two ranks.
    pub fn pingpong(&self, rounds: usize, len: usize) -> Result<Vec<f64>, String> {
        Ok(self
            .command(|| Cmd::PingPong { rounds, len })?
            .swap_remove(0))
    }

    /// Shut both transports down and join the rank threads.
    pub fn stop(self) -> Result<(), String> {
        for r in &self.ranks {
            let _ = r.cmds.send(Cmd::Stop);
        }
        let mut result = Ok(());
        for r in self.ranks {
            if r.handle.join().is_err() {
                result = Err("wire rank panicked".to_owned());
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        result
    }
}

fn wait_for_file(path: &Path) -> Result<(), String> {
    let deadline = Instant::now() + WIRE_REPLY_TIMEOUT;
    while !path.exists() {
        if Instant::now() > deadline {
            return Err(format!("rank 0 never published {}", path.display()));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Ok(())
}

fn rank_main(
    cfg: NetConfig,
    operands: Vec<Vec<f64>>,
    cmds: mpsc::Receiver<Cmd>,
    replies: mpsc::Sender<Reply>,
) {
    let t0 = Instant::now();
    let transport = match TcpTransport::connect(cfg) {
        Ok(t) => t,
        Err(e) => {
            let _ = replies.send(Err(format!("connect: {e}")));
            return;
        }
    };
    let connect_s = t0.elapsed().as_secs_f64();
    let comm = World::new(RANKS).attach(Arc::clone(&transport) as Arc<dyn Transport>);
    let ready = comm
        .barrier()
        .map(|()| vec![connect_s])
        .map_err(|e| format!("first barrier: {e}"));
    let ok = ready.is_ok();
    let _ = replies.send(ready);
    if ok {
        while let Ok(cmd) = cmds.recv() {
            let reply = match cmd {
                Cmd::Solve => allreduce_rounds(&comm, &operands),
                Cmd::PingPong { rounds, len } => pingpong(&comm, rounds, len),
                Cmd::Stop => break,
            };
            // Hand this thread's trace buffer to the registry so a
            // traced pass can fold it after every solve.
            pdc_trace::flush_thread();
            if replies.send(reply).is_err() {
                break;
            }
        }
    }
    transport.shutdown();
    pdc_trace::flush_thread();
}

fn allreduce_rounds(comm: &Comm, operands: &[Vec<f64>]) -> Reply {
    let mut out = Vec::with_capacity(operands.len() * WIRE_LEN);
    for v in operands {
        let _span = pdc_trace::span("bench", "allreduce");
        let sum = comm
            .allreduce(v.clone(), add)
            .map_err(|e| format!("allreduce: {e}"))?;
        out.extend(sum);
    }
    Ok(out)
}

/// Raw-bytes round trips between ranks 0 and 1 on tag 1; rank 0
/// returns each round trip's seconds, rank 1 nothing.
pub fn pingpong(comm: &Comm, rounds: usize, len: usize) -> Reply {
    let payload = Bytes::from(vec![0xA5u8; len]);
    let err = |e: pdc_mpc::MpcError| format!("ping-pong: {e}");
    let mut times = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        if comm.rank() == 0 {
            let t0 = Instant::now();
            comm.send_bytes(1, 1, payload.clone()).map_err(err)?;
            comm.recv_bytes(Source::Rank(1), TagSel::Tag(1))
                .map_err(err)?;
            times.push(t0.elapsed().as_secs_f64());
        } else {
            let (bytes, _) = comm
                .recv_bytes(Source::Rank(0), TagSel::Tag(1))
                .map_err(err)?;
            comm.send_bytes(0, 1, bytes).map_err(err)?;
        }
    }
    Ok(times)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".scratch")
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        assert_eq!(drug_config(7), drug_config(7));
        assert_ne!(drug_config(7), drug_config(8));
        assert_eq!(rod_config(7), rod_config(7));
        assert_ne!(rod_config(7), rod_config(8));
        assert_eq!(wire_inputs(7), wire_inputs(7));
        assert_ne!(wire_inputs(7), wire_inputs(8));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("moduleC"), None);
    }

    /// Every workload's solve matches its reference, and flipping one
    /// bit of the answer (or dropping a best ligand) is caught.
    #[test]
    fn reference_check_rejects_a_tampered_result() {
        for w in Workload::ALL {
            let mut inst = Instance::setup(w, 3, &scratch()).expect("set-up");
            let answer = inst.solve().expect("solve");
            assert!(inst.verify(&answer), "{}: honest answer rejected", w.name());
            let tampered = match answer {
                Answer::Floats(mut v) => {
                    let last = v.len() - 1;
                    v[last] = f64::from_bits(v[last].to_bits() ^ 1);
                    Answer::Floats(v)
                }
                Answer::Drug(mut r) => {
                    r.best_ligands.pop();
                    Answer::Drug(r)
                }
            };
            assert!(
                !inst.verify(&tampered),
                "{}: tampered answer accepted",
                w.name()
            );
            inst.teardown().expect("teardown");
        }
    }

    #[test]
    fn wire_reference_is_the_exact_elementwise_sum() {
        let inputs = wire_inputs(1);
        let want = wire_reference(&inputs);
        assert_eq!(want.len(), RANKS * WIRE_ROUNDS * WIRE_LEN);
        assert_eq!(
            want[5].to_bits(),
            (inputs[0][0][5] + inputs[1][0][5]).to_bits()
        );
        let offset = WIRE_ROUNDS * WIRE_LEN;
        assert_eq!(want[offset + 5].to_bits(), want[5].to_bits());
    }
}
