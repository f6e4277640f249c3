/**
 * @file
 * The two-host migration campaign behind runChaos for
 * ChaosLayer::Migrate (chaos_fuzz --migrate).
 *
 * Two hosts, one migration engine per direction, and a seeded stream
 * of domain ping-pong migrations with faults armed at random sites —
 * including the migrate.* protocol sites (torn checkpoint, frame
 * drop/dup/corrupt, lost ack, destination attest failure, crash
 * during commit). Every migration is judged by verify::judgeMigration
 * (verify/contracts.h):
 *
 *  - aborted migrations leave the source stateDigest bit-identical
 *    to the pre-migration baseline and the domain grantable again;
 *  - committed migrations leave the domain on exactly one host, its
 *    memory pattern intact, and the retired source id a typed denial
 *    (NoSuchDomain/StaleHandle) on every monitor call;
 *  - stranded commits (COMMIT lost for good) leave the domain staged
 *    on the destination — suspended, grantable nowhere;
 *  - the cross-system oracle observed no dual-grant window at any
 *    protocol step.
 */

#ifndef HPMP_VERIFY_MIGRATE_CHAOS_H
#define HPMP_VERIFY_MIGRATE_CHAOS_H

#include "verify/chaos_engine.h"

namespace hpmp::verify
{

/** runChaos for ChaosLayer::Migrate; call runChaos instead. */
ChaosStats runTwoHostCampaign(const ChaosConfig &config);

} // namespace hpmp::verify

#endif // HPMP_VERIFY_MIGRATE_CHAOS_H
