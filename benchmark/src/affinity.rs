//! CPU placement. The load generator and the server child each get CPUs of
//! their own, so the generator can never take cycles from the server it is
//! timing, and thread placement is the same in every run. On the 2-CPU build
//! box, unpinned runs of one binary scattered by ±10 % in throughput and
//! two-fold in open-loop latency (five threads migrating over two virtual
//! CPUs); pinned, they repeat within a few percent.

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on.
pub fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread. The call writes nothing beyond it.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Confine the calling thread — and every thread it later spawns — to
/// `cpus`; `false` when the kernel refuses. An empty list leaves placement
/// alone.
pub fn pin(cpus: &[usize]) -> bool {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus.iter().filter(|&&cpu| cpu < 1024) {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    if set == [0; 16] {
        return true;
    }
    // SAFETY: `set` is a live buffer of exactly the size passed, only read by
    // the call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// The most client threads (and connections) the generator uses.
const MAX_CONNECTIONS: usize = 2;

/// Who runs where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    /// CPUs of the load generator (and of everything else in the parent).
    pub generator: Vec<usize>,
    /// CPUs of the server child. Empty: no pinning (a single CPU).
    pub server: Vec<usize>,
    /// CPUs the benchmark found.
    pub nproc: usize,
}

impl Placement {
    /// Split `cpus`: up to two for the generator, but at most half of them;
    /// all the others for the server.
    pub fn split(cpus: &[usize]) -> Self {
        let nproc = cpus.len().max(1);
        let generator_cpus = (nproc / 2).min(MAX_CONNECTIONS);
        // With a single CPU there is nothing to split: nobody is pinned.
        let (generator, server) = match cpus.split_at(generator_cpus.min(cpus.len())) {
            ([], _) => (Vec::new(), Vec::new()),
            (generator, server) => (generator.to_vec(), server.to_vec()),
        };
        Placement {
            generator,
            server,
            nproc,
        }
    }

    /// Client threads, one connection each. A closed-loop client is busy
    /// whenever its reply is in, so there is one per generator CPU: two on
    /// one CPU would queue behind each other and time that. An open-loop
    /// client sleeps until its next request is due, and more connections
    /// keep one slow reply from holding up the whole schedule: `min(nproc, 2)`.
    pub fn connections(&self, open_loop: bool) -> usize {
        if open_loop {
            self.nproc.min(MAX_CONNECTIONS)
        } else {
            self.generator.len().clamp(1, MAX_CONNECTIONS)
        }
    }

    /// Nobody pinned: what is left when there is one CPU, or when the kernel
    /// refuses to pin. The benchmark still runs, only less steadily.
    pub fn unpinned(nproc: usize) -> Self {
        Placement {
            generator: Vec::new(),
            server: Vec::new(),
            nproc,
        }
    }

    /// The server's CPUs as `1,2,3`, for `serve --cpus`.
    pub fn server_list(&self) -> String {
        let cpus: Vec<String> = self.server.iter().map(usize::to_string).collect();
        cpus.join(",")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_and_server_never_share_a_cpu() {
        let two = Placement::split(&[0, 1]);
        assert_eq!((two.connections(false), two.connections(true)), (1, 2));
        assert_eq!((two.generator, two.server), (vec![0], vec![1]));
        let eight = Placement::split(&[2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!((eight.connections(false), eight.connections(true)), (2, 2));
        assert_eq!(eight.generator, vec![2, 3]);
        assert_eq!(eight.server, vec![4, 5, 6, 7, 8, 9]);
        assert_eq!(eight.server_list(), "4,5,6,7,8,9");
        let three = Placement::split(&[0, 1, 2]);
        assert_eq!((three.generator, three.server), (vec![0], vec![1, 2]));
        // One CPU (or none reported): no pinning, one connection.
        for cpus in [&[5][..], &[][..]] {
            let one = Placement::split(cpus);
            assert!(one.generator.is_empty() && one.server.is_empty());
            assert_eq!(
                (one.connections(false), one.connections(true), one.nproc),
                (1, 1, 1)
            );
        }
    }

    #[test]
    fn pinning_narrows_what_allowed_reports() {
        let before = allowed();
        assert!(!before.is_empty());
        // Runs on a thread of its own, so the test harness is not confined.
        let first = before[0];
        let after = std::thread::spawn(move || {
            assert!(pin(&[first]));
            allowed()
        })
        .join()
        .unwrap();
        assert_eq!(after, vec![first]);
    }
}
