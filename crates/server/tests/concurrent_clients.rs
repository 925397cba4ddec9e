//! Two client threads dispatching on one pool at once: whichever finds the
//! crew occupied runs its broadcast on its own thread alone, and neither
//! loses a server or a result.

use pdc_server::ServerPool;
use std::sync::Barrier;

#[test]
fn two_clients_broadcasting_on_one_pool_each_reach_every_server() {
    const SERVERS: u32 = 16;
    const ROUNDS: u64 = 100;
    let pool = ServerPool::new(SERVERS, |_| 0u64).with_worker_threads(2);
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                start.wait();
                for _ in 0..ROUNDS {
                    let ids = pool.broadcast(|id, count| {
                        *count += 1;
                        id.raw()
                    });
                    assert_eq!(ids, (0..SERVERS).collect::<Vec<u32>>());
                }
            });
        }
    });
    pool.for_each_server(|_, count| assert_eq!(*count, 2 * ROUNDS));
}

#[test]
fn a_dispatch_that_finds_the_crew_occupied_runs_on_its_own_thread() {
    const LAST: u32 = 15;
    let pool = ServerPool::new(LAST + 1, |_| ()).with_worker_threads(2);
    // The first client's dispatch stays in flight, inside its last server's
    // handler, until the second client's dispatch has run its first one.
    let first_is_inside = Barrier::new(2);
    let overlap = Barrier::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            pool.broadcast(|id, _| {
                if id.raw() == LAST {
                    first_is_inside.wait();
                    overlap.wait();
                }
            });
        });
        scope.spawn(|| {
            first_is_inside.wait();
            let me = std::thread::current().id();
            let ran_on = pool.broadcast(|id, _| {
                if id.raw() == 0 {
                    overlap.wait();
                }
                std::thread::current().id()
            });
            assert!(ran_on.iter().all(|&t| t == me), "second dispatcher borrowed a helper");
        });
    });
}
